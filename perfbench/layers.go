package main

import (
	"bytes"
	"os"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
)

// toggleTracing turns tracing on in odd seconds of the measured phase
// and off in even ones, so a traced run can compare the two for the
// tracing overhead. Without --trace tracing stays off. The returned
// function stops the toggling and waits for it.
func toggleTracing(cfg config, tr *tracer) (stop func()) {
	tr.set(false)
	if !cfg.trace {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for s := 0; ; s++ {
			tr.set(s%2 == 1)
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		tr.set(true)
	}
}

// keyedDelta is one profile delta of a build, with the graph before
// and after it when the workload has them.
type keyedDelta struct {
	key       api.ProgramKey
	delta     *profile.DCG
	prev, cur *profile.DCG
}

// storeLayers times the profile and dcgstore calls a daemon makes on
// ingest, on a workload's own deltas: encode, decode, merge into a
// keyed store, snapshot of its largest build, delta capture, and a
// checkpoint of the whole store family.
func storeLayers(cfg config, r *report, parent uint64, items []keyedDelta) error {
	tr := r.tr
	var edges float64
	payloads := make([][]byte, len(items))
	for i, it := range items {
		edges += float64(it.delta.NumEdges())
		var b bytes.Buffer
		if _, err := it.delta.WriteTo(&b); err != nil {
			return err
		}
		payloads[i] = b.Bytes()
	}
	const reps = 5
	var buf bytes.Buffer
	s, err := tr.measure("profile.WriteTo", parent, reps, func() error {
		for _, it := range items {
			buf.Reset()
			if _, err := it.delta.WriteTo(&buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["profile.encode_ns_per_edge"] = s / edges * 1e9
	s, err = tr.measure("profile.DecodeDCGBytes", parent, reps, func() error {
		for _, p := range payloads {
			if _, err := profile.DecodeDCGBytes(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["profile.decode_ns_per_edge"] = s / edges * 1e9

	multi := dcgstore.NewMulti(8)
	var seq uint64
	s, err = tr.measure("dcgstore.MergeDCGFrom", parent, reps, func() error {
		for _, it := range items {
			seq++
			multi.For(it.key).MergeDCGFrom("layers", seq, it.delta)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["dcgstore.merge_ns_per_edge"] = s / edges * 1e9

	big := items[0]
	for _, it := range items {
		if multi.Lookup(it.key).NumEdges() > multi.Lookup(big.key).NumEdges() {
			big = it
		}
	}
	var snap *profile.DCG
	s, err = tr.measure("dcgstore.Snapshot", parent, 50, func() error {
		snap = multi.Lookup(big.key).Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["dcgstore.snapshot_ms"] = s * 1e3

	prev, cur := big.prev, big.cur
	if prev == nil {
		prev, cur = snap, snap.Clone()
		cur.Merge(big.delta)
	}
	s, err = tr.measure("profile.DeltaSince", parent, 50, func() error {
		cur.DeltaSince(prev)
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["profile.delta_ms"] = s * 1e3

	dir, err := freshDir(stateBase(cfg), "layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err = tr.measure("dcgstore.SaveMultiCheckpoint", parent, 3, func() error {
		return dcgstore.SaveMultiCheckpoint(dir, multi)
	})
	if err != nil {
		return err
	}
	r.metrics["dcgstore.checkpoint_ms"] = s * 1e3
	return nil
}
