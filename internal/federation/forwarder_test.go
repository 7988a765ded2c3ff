package federation

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
)

// TestFlushWritesStateAtMostTwice: a flush that relays three manifests
// and forwards three keyed deltas writes the state file twice — the
// write-ahead persist before the first push and one after the last
// ack — and a restart from that file has nothing pending.
func TestFlushWritesStateAtMostTwice(t *testing.T) {
	root := newRootServer()
	// failIngest, when > 0, counts down the ingest requests that reach
	// the root and fails the one it reaches zero on.
	var failIngest atomic.Int32
	h := root.handler(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathIngest && failIngest.Load() > 0 && failIngest.Add(-1) == 0 {
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "injected")
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	leaf := dcgstore.NewMulti(4)
	for i := 0; i < 3; i++ {
		key := api.ProgramKey{Program: "compress", Version: fmt.Sprintf("%016x", i+1)}
		man := &bytecode.Manifest{Program: key.Program, Version: key.Version,
			Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: uint64(i + 1)}},
			Sites:   []bytecode.SiteFingerprint{{Owner: 0, PC: 3}}}
		if _, _, err := leaf.RegisterManifest(man); err != nil {
			t.Fatal(err)
		}
		g := profile.NewDCG()
		g.AddSample(edge(0, 3, i), float64(i+1))
		leaf.For(key).MergeDCGFrom("vm-1", 1, g)
	}
	statePath := filepath.Join(t.TempDir(), "fwd-state.json")
	mkFwd := func() *Forwarder {
		t.Helper()
		fwd, err := NewForwarder(ForwarderConfig{
			ID: "leaf-0", Upstream: fastUpstream(ts.URL),
			Source: leaf.Default().Snapshot,
			KeyedSource: func() map[api.ProgramKey]*profile.DCG {
				out := make(map[api.ProgramKey]*profile.DCG)
				for _, k := range leaf.Keys() {
					out[k] = leaf.Lookup(k).Snapshot()
				}
				return out
			},
			Manifests: leaf.ManifestsInOrder,
			StatePath: statePath,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fwd
	}

	fwd := mkFwd()
	resp, err := fwd.Flush()
	if err != nil || !resp.Forwarded || resp.Seq != 3 {
		t.Fatalf("flush: resp=%+v err=%v", resp, err)
	}
	if fwd.stateWrites > 2 {
		t.Errorf("flush of three keyed deltas wrote the state file %d times, want at most 2", fwd.stateWrites)
	}
	fwd2 := mkFwd()
	if p := fwd2.Pending(); p != 0 {
		t.Errorf("restart after a full flush has %d pending, want 0", p)
	}
	for _, k := range leaf.Keys() {
		mustEqualDCG(t, "acked "+k.String()+" after restart", fwd2.AcknowledgedKeyed(k), leaf.Lookup(k).Snapshot())
	}
	if resp, err := fwd2.Flush(); err != nil || resp.Edges != 0 || fwd2.stateWrites != 0 {
		t.Errorf("idle flush after restart: resp=%+v err=%v, %d state writes", resp, err, fwd2.stateWrites)
	}

	// Every build grows and the second push fails: the first ack is
	// saved before the flush returns, so a restart re-sends only the
	// two unacknowledged deltas and the root sees no duplicate.
	for i, k := range leaf.Keys() {
		g := profile.NewDCG()
		g.AddSample(edge(0, 3, i), 10)
		leaf.For(k).MergeDCGFrom("vm-1", 2, g)
	}
	failIngest.Store(2)
	if _, err := fwd2.Flush(); err == nil {
		t.Fatal("flush with a failing second push must error")
	}
	if fwd2.stateWrites != 2 {
		t.Errorf("failed flush wrote the state file %d times, want 2", fwd2.stateWrites)
	}
	fwd3 := mkFwd()
	if p := fwd3.Pending(); p != 2 {
		t.Fatalf("restart after one of three acks has %d pending, want 2", p)
	}
	if _, err := fwd3.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range leaf.Keys() {
		mustEqualDCG(t, "root "+k.String(), root.multi.Lookup(k).Snapshot(), leaf.Lookup(k).Snapshot())
	}
	if d := root.multi.Lookup(leaf.Keys()[0]).Stats().Duplicates; d != 0 {
		t.Errorf("root deduplicated %d re-sends of the saved ack, want 0", d)
	}
}
