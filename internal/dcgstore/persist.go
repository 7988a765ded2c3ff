package dcgstore

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gocbs/internal/atomicfile"
	"gocbs/internal/profile"
)

// Checkpoint persistence.
//
// The store's durability model is checkpoint-based: the whole graph is
// periodically written to a state directory and reloaded on boot, so a
// restarted daemon resumes with the fleet DCG intact instead of empty.
// A checkpoint is two files, each replaced through atomicfile.Write
// (temp file, fsync, rename, directory fsync) so a crash mid-write
// leaves the previous checkpoint untouched:
//
//	store.dcgb   the graph, in the versioned DCGB binary wire format
//	             (the same canonical serialization /snapshot streams)
//	pushers.seq  per-pusher ingest high-water marks, line-oriented:
//	             "cbsd-seq v1" header then "<pusher-id> <seq>" lines
//
// The pair is captured atomically (Store.CheckpointState), and both
// files are written before either is renamed into place, sequences
// first, so a crash between the two renames leaves sequences from a
// *newer* checkpoint than the graph. That order is the safe one: a
// too-new high-water mark can only drop a retried increment, an
// undercount no worse than the already-documented loss of the window
// since the last durable graph. The opposite order (new graph, old
// sequences) would let a post-restart retry double-count an increment
// the graph already contains, which is corruption.
//
// Everything merged after the last completed checkpoint is lost on a
// crash; a graceful shutdown (SIGTERM) writes a final checkpoint after
// draining in-flight requests, so planned restarts lose nothing.

const (
	// CheckpointGraphFile is the graph file inside a state directory.
	CheckpointGraphFile = "store.dcgb"
	// CheckpointSeqFile is the sequence file inside a state directory.
	CheckpointSeqFile = "pushers.seq"
	// seqFileHeader is the sequence file's format header.
	seqFileHeader = "cbsd-seq v1"
)

// DefaultCheckpointEvery is the default interval between periodic
// checkpoints.
const DefaultCheckpointEvery = 30 * time.Second

// SaveCheckpoint writes a consistent checkpoint of s into dir,
// creating dir if needed.
func SaveCheckpoint(dir string, s *Store) error {
	g, seqs := s.CheckpointState()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Sequences first, graph last: see the ordering argument above.
	if err := atomicfile.Write(filepath.Join(dir, CheckpointSeqFile), func(w io.Writer) error {
		return writeSequences(w, seqs)
	}); err != nil {
		return fmt.Errorf("checkpoint sequences: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, CheckpointGraphFile), func(w io.Writer) error {
		_, err := g.WriteTo(w)
		return err
	}); err != nil {
		return fmt.Errorf("checkpoint graph: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the checkpoint in dir. A directory with no
// graph file is a fresh start: (nil, nil, nil). A graph file with no
// sequence file is tolerated (empty sequence map) for forward
// compatibility with states written by older builds; a present but
// corrupt file of either kind is an error — silently ignoring it would
// corrupt weights on the next retry.
func LoadCheckpoint(dir string) (*profile.DCG, map[string]uint64, error) {
	gf, err := os.Open(filepath.Join(dir, CheckpointGraphFile))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint graph: %w", err)
	}
	defer gf.Close()
	g, err := profile.ReadDCG(gf)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint graph %s: %w", CheckpointGraphFile, err)
	}
	sf, err := os.Open(filepath.Join(dir, CheckpointSeqFile))
	if os.IsNotExist(err) {
		return g, map[string]uint64{}, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint sequences: %w", err)
	}
	defer sf.Close()
	seqs, err := readSequences(sf)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint sequences %s: %w", CheckpointSeqFile, err)
	}
	return g, seqs, nil
}

// RestoreCheckpoint loads dir's checkpoint into s (graph merged,
// high-water marks seeded) and reports whether a checkpoint existed.
// Call it on an empty store before serving traffic.
func RestoreCheckpoint(s *Store, dir string) (bool, error) {
	g, seqs, err := LoadCheckpoint(dir)
	if err != nil || g == nil {
		return false, err
	}
	s.MergeDCG(g)
	s.RestoreSequences(seqs)
	return true, nil
}

// writeSequences serializes high-water marks in sorted order so the
// file, like the graph, is canonical.
func writeSequences(w io.Writer, seqs map[string]uint64) error {
	if _, err := fmt.Fprintln(w, seqFileHeader); err != nil {
		return err
	}
	ids := make([]string, 0, len(seqs))
	for id := range seqs {
		// Defense in depth: the ingest handler validates IDs, but a
		// hand-seeded map must not be able to corrupt the line format.
		if ValidPusherID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "%s %d\n", id, seqs[id]); err != nil {
			return err
		}
	}
	return nil
}

// readSequences parses the sequence file format.
func readSequences(r io.Reader) (map[string]uint64, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != seqFileHeader {
		return nil, fmt.Errorf("bad header %q (want %q)", sc.Text(), seqFileHeader)
	}
	seqs := make(map[string]uint64)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !ValidPusherID(fields[0]) {
			return nil, fmt.Errorf("line %d: malformed entry %q", line, text)
		}
		seq, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sequence %q", line, fields[1])
		}
		seqs[fields[0]] = seq
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return seqs, nil
}

// Checkpointer periodically checkpoints a store to a state directory.
// cbsd runs one in the background and writes one final checkpoint
// itself after draining in-flight requests on shutdown.
type Checkpointer struct {
	Dir   string
	Store *Store
	// Multi, when set, checkpoints the whole keyed store family
	// (SaveMultiCheckpoint) instead of just Store.
	Multi *Multi
	// Every is the checkpoint interval; <= 0 selects
	// DefaultCheckpointEvery.
	Every time.Duration
	// Logf, when set, receives one line per failed checkpoint (a
	// failure is retried at the next tick, not fatal).
	Logf func(format string, args ...any)
}

// Run checkpoints every interval until ctx is cancelled. It never
// returns a periodic failure (transient disk pressure should not kill
// the daemon); failures are logged through Logf and retried.
func (c *Checkpointer) Run(ctx context.Context) {
	every := c.Every
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			var err error
			if c.Multi != nil {
				err = SaveMultiCheckpoint(c.Dir, c.Multi)
			} else {
				err = SaveCheckpoint(c.Dir, c.Store)
			}
			if err != nil && c.Logf != nil {
				c.Logf("checkpoint: %v", err)
			}
		}
	}
}
