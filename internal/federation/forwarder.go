package federation

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Forwarder streams a leaf store's accumulated weight upstream to the
// root as stamped, exactly-once increments — the leaf-side half of the
// federation tentpole. It is a DeltaPusher grown a write-ahead state
// file: every capture is persisted *before* the first push attempt, so
// a leaf that crashes after a push whose response was lost re-sends
// the identical frozen increment on restart and the root deduplicates
// it by (pusher, seq) — weight can neither vanish nor double-count
// across a leaf restart.
//
// Crash matrix (state file written through atomicfile.Write; one
// write-ahead persist before the first push, and acks persisted once,
// after the last ack or at the first failed send):
//
//   - crash before capture persists: the weight is still in the
//     store snapshot; the next capture picks it up under a new seq.
//   - crash after capture persists, before the acks persist: the
//     increments are in pending; restart re-sends them verbatim. The
//     root drops as duplicates those that had actually landed.
//   - crash after the acks persist: nothing outstanding.
//
// The store snapshot the forwarder captures from must never shrink
// (leaves do not decay locally — decay is the root's job), and on a
// graceful restart the leaf checkpoints its store alongside this
// state, so the restored snapshot is always >= the persisted capture
// baseline.
type Forwarder struct {
	// ID is the leaf's upstream pusher identity.
	id string
	// upstream is the api client aimed at the root.
	upstream *api.Client
	// source returns the leaf store's consistent snapshot.
	source func() *profile.DCG
	// keyedSource returns per-(program, version) snapshots; nil leaves
	// forward only the default stream.
	keyedSource func() map[api.ProgramKey]*profile.DCG
	// manifests returns the leaf's registered manifests in registration
	// order, for upward relay; nil skips manifest relay.
	manifests func() []*bytecode.Manifest
	// statePath, when non-empty, persists the write-ahead state.
	statePath string

	mu sync.Mutex
	// last is the snapshot baseline of the previous capture.
	last *profile.DCG
	// lastKeyed is the per-build capture baseline.
	lastKeyed map[api.ProgramKey]*profile.DCG
	// seq is the last allocated sequence number. One counter stamps
	// both the default and every keyed stream: the root deduplicates
	// per substore against a per-pusher high-water mark, and each
	// stream sees a strictly increasing subsequence of one counter.
	seq uint64
	// pending holds captured-but-unacknowledged increments in
	// sequence order, frozen (bytes never change once stamped).
	pending []stampedDelta
	// acked accumulates every default-stream increment the root
	// acknowledged — by construction exactly the graph the root owes
	// this leaf.
	acked *profile.DCG
	// ackedKeyed is the same accounting per build.
	ackedKeyed map[api.ProgramKey]*profile.DCG
	// sentManifests records which manifests the root has acknowledged;
	// relay is at-least-once and the root registers idempotently.
	sentManifests map[api.ProgramKey]bool

	forwards uint64
	errs     uint64
	// stateWrites counts state-file writes attempted.
	stateWrites uint64
}

// stampedDelta is one frozen increment. A zero key targets the root's
// default substore; a non-zero key its (program, version) substore.
type stampedDelta struct {
	seq   uint64
	key   api.ProgramKey
	delta *profile.DCG
}

// ForwarderConfig configures a leaf's upstream forwarder.
type ForwarderConfig struct {
	// ID is the leaf's upstream pusher identity. Required unless a
	// state file already records one.
	ID string
	// Upstream is the api client aimed at the root. Required.
	Upstream *api.Client
	// Source returns the leaf store's consistent snapshot. Required.
	Source func() *profile.DCG
	// KeyedSource returns per-(program, version) snapshots of the
	// leaf's keyed substores. Optional: nil forwards only the default
	// stream (the pre-versioning behaviour). Each keyed graph is
	// forwarded to the same substore at the root, so version isolation
	// survives federation end to end.
	KeyedSource func() map[api.ProgramKey]*profile.DCG
	// Manifests returns the leaf's registered manifests in
	// registration order, relayed upstream (before any keyed deltas)
	// so the root can run its own carry-forward. Optional.
	Manifests func() []*bytecode.Manifest
	// StatePath, when non-empty, persists the forwarder's write-ahead
	// state (capture baselines, sequence counter, pending increments)
	// across restarts. Without it a restarted leaf would re-forward
	// its whole restored store under fresh stamps.
	StatePath string
}

// NewForwarder returns a forwarder, restoring persisted state from
// cfg.StatePath when the file exists. A persisted identity must match
// cfg.ID (the sequence stream belongs to the identity); cfg.ID may be
// empty to adopt the persisted one.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("federation: forwarder needs an upstream client")
	}
	if cfg.Source == nil {
		return nil, errors.New("federation: forwarder needs a store source")
	}
	f := &Forwarder{
		id:            cfg.ID,
		upstream:      cfg.Upstream,
		source:        cfg.Source,
		keyedSource:   cfg.KeyedSource,
		manifests:     cfg.Manifests,
		statePath:     cfg.StatePath,
		acked:         profile.NewDCG(),
		lastKeyed:     make(map[api.ProgramKey]*profile.DCG),
		ackedKeyed:    make(map[api.ProgramKey]*profile.DCG),
		sentManifests: make(map[api.ProgramKey]bool),
	}
	if cfg.StatePath != "" {
		if err := f.restore(cfg.StatePath, cfg.ID); err != nil {
			return nil, err
		}
	}
	if f.id == "" {
		// Fresh leaf with no configured identity: mint a random one
		// (persisted on first flush, so restarts keep the stream).
		f.id = newLeafID()
	}
	return f, nil
}

// newLeafID mints a random upstream identity for a leaf that was not
// given one. Random, not host-derived: two leaves colliding in the
// root's sequence table would have increments silently dropped as
// duplicates of each other's.
func newLeafID() string {
	var b [8]byte
	crand.Read(b[:]) // rand.Read never fails on supported platforms
	return "leaf-" + hex.EncodeToString(b[:])
}

// ID returns the leaf's upstream pusher identity.
func (f *Forwarder) ID() string { return f.id }

// Flush relays any newly registered manifests, captures the weight the
// store (default and keyed substores alike) accumulated since the
// previous capture as new stamped increments, persists the state, then
// pushes every pending increment upstream in order. A flush with
// nothing new and nothing pending is a no-op. The returned response
// reports what this flush captured and what remains pending (non-zero
// only when an upstream push failed; those increments stay frozen for
// the next flush).
func (f *Forwarder) Flush() (api.FlushResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	resp := api.FlushResponse{}
	// unsaved marks acknowledged progress (relayed manifests, acked
	// increments) not yet in the state file. Losing it in a crash only
	// costs an idempotent re-register or a deduplicated re-send, so it
	// is saved once, by the write-ahead persist or at the end of the
	// flush, not after every acknowledgement.
	unsaved := false

	// Manifests go first, in registration order, so the root learns a
	// build's succession (and runs its carry-forward) before that
	// build's deltas arrive. At-least-once: a relay whose response was
	// lost re-sends, and the root registers idempotently.
	if f.manifests != nil {
		for _, man := range f.manifests() {
			key := api.ProgramKey{Program: man.Program, Version: man.Version}
			if f.sentManifests[key] {
				continue
			}
			if _, err := f.upstream.PushManifest(key, man.Encode()); err != nil {
				f.errs++
				f.saveAcksLocked(unsaved)
				resp.Pending = len(f.pending)
				resp.Seq = f.ackedSeqLocked()
				return resp, fmt.Errorf("federation: relay manifest %s: %w", key.String(), err)
			}
			f.sentManifests[key] = true
			unsaved = true
		}
	}

	// Capture phase: one write-ahead persist covers every stream's
	// capture, with a full rollback on persist failure so the next
	// flush re-captures the identical deltas under the same seqs.
	type rollback struct {
		key  api.ProgramKey
		prev *profile.DCG
		def  bool
	}
	var rollbacks []rollback
	capture := func(key api.ProgramKey, def bool, cur, base *profile.DCG) *profile.DCG {
		delta := cur.DeltaSince(base)
		if delta.NumEdges() == 0 {
			return base
		}
		rollbacks = append(rollbacks, rollback{key: key, prev: base, def: def})
		f.seq++
		f.pending = append(f.pending, stampedDelta{seq: f.seq, key: key, delta: delta})
		resp.Edges += delta.NumEdges()
		resp.Weight += delta.Total()
		return cur.Clone()
	}
	f.last = capture(api.ProgramKey{}, true, f.source(), f.last)
	if f.keyedSource != nil {
		keyed := f.keyedSource()
		keys := make([]api.ProgramKey, 0, len(keyed))
		for k := range keyed {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			if next := capture(k, false, keyed[k], f.lastKeyed[k]); next != nil {
				f.lastKeyed[k] = next
			}
		}
	}
	if len(rollbacks) > 0 {
		// Write-ahead: the captures must hit disk before the first push
		// attempt, or a crash after a successful push would re-capture
		// and double-send this weight under new stamps.
		if err := f.persistLocked(); err != nil {
			// Roll every capture back to its PRIOR baseline, so the next
			// flush re-captures exactly these deltas (plus anything
			// newer) under the same seqs. Resetting a baseline to nil
			// instead would re-capture the whole stream — weight the
			// root already acknowledged under earlier seqs,
			// double-counted under fresh stamps.
			f.pending = f.pending[:len(f.pending)-len(rollbacks)]
			f.seq -= uint64(len(rollbacks))
			for _, rb := range rollbacks {
				switch {
				case rb.def:
					f.last = rb.prev
				case rb.prev == nil:
					delete(f.lastKeyed, rb.key)
				default:
					f.lastKeyed[rb.key] = rb.prev
				}
			}
			f.errs++
			resp.Edges, resp.Weight = 0, 0
			return resp, fmt.Errorf("federation: persist capture: %w", err)
		}
		unsaved = false
	}

	for len(f.pending) > 0 {
		head := f.pending[0]
		if _, err := f.upstream.PushDeltaKeyed(f.id, head.seq, head.key, encodeDCG(head.delta)); err != nil {
			f.errs++
			f.saveAcksLocked(unsaved)
			resp.Pending = len(f.pending)
			resp.Seq = f.ackedSeqLocked()
			return resp, fmt.Errorf("federation: forward seq %d: %w", head.seq, err)
		}
		f.pending = f.pending[1:]
		if head.key.IsZero() {
			f.acked.Merge(head.delta)
		} else {
			if f.ackedKeyed[head.key] == nil {
				f.ackedKeyed[head.key] = profile.NewDCG()
			}
			f.ackedKeyed[head.key].Merge(head.delta)
		}
		f.forwards++
		unsaved = true
	}
	if unsaved {
		if err := f.persistLocked(); err != nil {
			// The acks are applied in memory; a stale state file only
			// means redundant (deduplicated) re-sends after a crash.
			f.errs++
			resp.Seq = f.ackedSeqLocked()
			return resp, fmt.Errorf("federation: persist ack: %w", err)
		}
	}
	resp.Forwarded = true
	resp.Seq = f.seq
	return resp, nil
}

// saveAcksLocked persists acknowledged progress before a flush
// returns on a failed send, so the next flush does not re-send what
// was already acknowledged. A persist failure here only counts as an
// error: the send's failure is what the flush reports.
func (f *Forwarder) saveAcksLocked(unsaved bool) {
	if unsaved && f.persistLocked() != nil {
		f.errs++
	}
}

// ackedSeqLocked returns the highest acknowledged sequence: the seq
// just below the oldest pending increment, or the counter itself when
// nothing is pending.
func (f *Forwarder) ackedSeqLocked() uint64 {
	if len(f.pending) > 0 {
		return f.pending[0].seq - 1
	}
	return f.seq
}

// Acknowledged returns a clone of the cumulative default-stream graph
// the root has acknowledged from this leaf — what the conservation
// checker holds the root accountable for.
func (f *Forwarder) Acknowledged() *profile.DCG {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acked.Clone()
}

// AcknowledgedKeyed is Acknowledged for one (program, version) stream;
// an empty graph when the root has acknowledged nothing for that build.
func (f *Forwarder) AcknowledgedKeyed(key api.ProgramKey) *profile.DCG {
	f.mu.Lock()
	defer f.mu.Unlock()
	if g := f.ackedKeyed[key]; g != nil {
		return g.Clone()
	}
	return profile.NewDCG()
}

// Pending reports how many captured increments await acknowledgement.
func (f *Forwarder) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Status returns the leaf's registration/heartbeat body.
func (f *Forwarder) Status(addr string) api.LeafStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return api.LeafStatus{
		ID:     f.id,
		Addr:   addr,
		Seq:    f.ackedSeqLocked(),
		Edges:  f.acked.NumEdges(),
		Weight: f.acked.Total(),
	}
}

// Metrics returns the forwarder's /metrics section.
func (f *Forwarder) Metrics() *api.ForwardMetrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &api.ForwardMetrics{
		Seq:       f.seq,
		Pending:   len(f.pending),
		Forwards:  f.forwards,
		Errors:    f.errs,
		AckEdges:  f.acked.NumEdges(),
		AckWeight: f.acked.Total(),
	}
}

// forwarderState is the on-disk write-ahead state. Graph payloads are
// the canonical DCGB wire format (base64 in JSON).
type forwarderState struct {
	ID      string         `json:"id"`
	Seq     uint64         `json:"seq"`
	Last    []byte         `json:"last,omitempty"`
	Acked   []byte         `json:"acked,omitempty"`
	Pending []pendingState `json:"pending,omitempty"`
	// Keyed carries the per-build baselines and acked graphs, in
	// canonical key order; SentManifests the manifests the root has
	// already acknowledged.
	Keyed         []keyedState     `json:"keyed,omitempty"`
	SentManifests []api.ProgramKey `json:"sent_manifests,omitempty"`
}

type pendingState struct {
	Seq uint64 `json:"seq"`
	// Program/Version name the target substore; empty targets the
	// default stream.
	Program string `json:"program,omitempty"`
	Version string `json:"version,omitempty"`
	Delta   []byte `json:"delta"`
}

type keyedState struct {
	Program string `json:"program"`
	Version string `json:"version"`
	Last    []byte `json:"last,omitempty"`
	Acked   []byte `json:"acked,omitempty"`
}

func encodeDCG(g *profile.DCG) []byte {
	var buf bytes.Buffer
	g.WriteTo(&buf) // in-memory write cannot fail
	return buf.Bytes()
}

func decodeDCG(b []byte) (*profile.DCG, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return profile.ReadDCG(bytes.NewReader(b))
}

// persistLocked writes the state atomically (see atomicfile.Write), a
// no-op without a StatePath.
func (f *Forwarder) persistLocked() error {
	if f.statePath == "" {
		return nil
	}
	st := forwarderState{ID: f.id, Seq: f.seq}
	if f.last != nil {
		st.Last = encodeDCG(f.last)
	}
	if f.acked.NumEdges() > 0 {
		st.Acked = encodeDCG(f.acked)
	}
	for _, p := range f.pending {
		st.Pending = append(st.Pending, pendingState{
			Seq: p.seq, Program: p.key.Program, Version: p.key.Version, Delta: encodeDCG(p.delta),
		})
	}
	keys := make([]api.ProgramKey, 0, len(f.lastKeyed)+len(f.ackedKeyed))
	seen := make(map[api.ProgramKey]bool)
	for k := range f.lastKeyed {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range f.ackedKeyed {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		ks := keyedState{Program: k.Program, Version: k.Version}
		if g := f.lastKeyed[k]; g != nil {
			ks.Last = encodeDCG(g)
		}
		if g := f.ackedKeyed[k]; g != nil && g.NumEdges() > 0 {
			ks.Acked = encodeDCG(g)
		}
		st.Keyed = append(st.Keyed, ks)
	}
	for k := range f.sentManifests {
		st.SentManifests = append(st.SentManifests, k)
	}
	sort.Slice(st.SentManifests, func(i, j int) bool {
		return st.SentManifests[i].String() < st.SentManifests[j].String()
	})
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	f.stateWrites++
	return atomicfile.Write(f.statePath, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// restore loads persisted state; a missing file is a fresh start.
func (f *Forwarder) restore(path, wantID string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var st forwarderState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("federation: corrupt forwarder state %s: %w", path, err)
	}
	if wantID != "" && st.ID != wantID {
		return fmt.Errorf("federation: forwarder state %s belongs to %q, not %q (sequence streams are per identity)",
			path, st.ID, wantID)
	}
	f.id = st.ID
	f.seq = st.Seq
	if f.last, err = decodeDCG(st.Last); err != nil {
		return fmt.Errorf("federation: corrupt capture baseline in %s: %w", path, err)
	}
	acked, err := decodeDCG(st.Acked)
	if err != nil {
		return fmt.Errorf("federation: corrupt acked graph in %s: %w", path, err)
	}
	if acked != nil {
		f.acked = acked
	}
	for _, p := range st.Pending {
		d, err := decodeDCG(p.Delta)
		if err != nil {
			return fmt.Errorf("federation: corrupt pending increment %d in %s: %w", p.Seq, path, err)
		}
		f.pending = append(f.pending, stampedDelta{
			seq: p.Seq, key: api.ProgramKey{Program: p.Program, Version: p.Version}, delta: d,
		})
	}
	for _, ks := range st.Keyed {
		key := api.ProgramKey{Program: ks.Program, Version: ks.Version}
		if last, err := decodeDCG(ks.Last); err != nil {
			return fmt.Errorf("federation: corrupt keyed baseline %s in %s: %w", key.String(), path, err)
		} else if last != nil {
			f.lastKeyed[key] = last
		}
		if acked, err := decodeDCG(ks.Acked); err != nil {
			return fmt.Errorf("federation: corrupt keyed acked graph %s in %s: %w", key.String(), path, err)
		} else if acked != nil {
			f.ackedKeyed[key] = acked
		}
	}
	for _, k := range st.SentManifests {
		f.sentManifests[k] = true
	}
	return nil
}
