package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/daemon"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// ingest-flood: a closed loop of at most nproc pushers, each waiting
// for its ack before sending the next delta (the exactly-once protocol
// makes real pushers wait), against one in-process cbsd with a state
// dir and a checkpoint cadence that fires many times per run. Deltas
// are exhaustive-profile sized and stamped across many builds, so the
// store's working set is large. Decode, merge and HTTP dominate; no VM
// or plan work runs in the measured phase.

const (
	ingestBuilds       = 48 // (program, version) keys the flood spreads over
	ingestVariants     = 4  // distinct deltas per build
	ingestCheckpoint   = time.Second
	ingestWindow       = 2000 // requests per window; p99 keeps 20 beyond it
	ingestShards       = 8
	ingestCalibEvery   = 256 // requests between a pusher's calibrations
	ingestDeltaKeepPct = 75
)

// ingestBuild is one build the flood pushes to, with its deltas
// pre-encoded.
type ingestBuild struct {
	key      api.ProgramKey
	deltas   []*profile.DCG
	payloads [][]byte
}

type ingestSetup struct {
	builds []*ingestBuild
	d      *daemonHandle
	dir    string
}

// ingestPool generates the builds and their deltas from the
// exhaustive profiles of the suite programs. Every seed maps builds to
// programs and scales delta weights the same way, so delta sizes, and
// with them the per-request work, do not depend on the seed; the seed
// picks the versions, which edges each delta keeps and the request
// order.
func ingestPool(cfg config, tr *tracer, parent uint64) ([]*ingestBuild, error) {
	ps := suitePrograms(cfg.seed, cfg.tiny)
	if _, _, _, err := prepare(ps, false, tr, parent); err != nil {
		return nil, err
	}
	var names []string
	var graphs []*profile.DCG
	for _, p := range ps {
		m := vm.New(p.prog)
		m.MaxSteps = vmMaxSteps
		e := profiler.NewInstrumented()
		m.SetProfiler(e)
		sp := tr.begin("profiler.exhaustive", parent)
		_, err := m.Run(p.arg)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.name, err)
		}
		if e.Graph.NumEdges() > 0 {
			names, graphs = append(names, p.name), append(graphs, e.Graph)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	n := ingestBuilds
	if cfg.tiny {
		n = 6
	}
	builds := make([]*ingestBuild, n)
	for i := range builds {
		g := graphs[i%len(graphs)]
		b := &ingestBuild{key: api.ProgramKey{Program: "flood-" + names[i%len(graphs)], Version: fmt.Sprintf("%016x", rng.Uint64())}}
		for v := 0; v < ingestVariants; v++ {
			d := profile.NewDCG()
			scale := 0.02 * float64(v+1)
			for _, e := range g.Edges() {
				if rng.Intn(100) < ingestDeltaKeepPct || d.NumEdges() == 0 {
					d.AddSample(e, float64(1+int64(g.Weight(e)*scale)))
				}
			}
			var buf bytes.Buffer
			if _, err := d.WriteTo(&buf); err != nil {
				return nil, err
			}
			b.deltas = append(b.deltas, d)
			b.payloads = append(b.payloads, buf.Bytes())
		}
		builds[i] = b
	}
	return builds, nil
}

// ingestCounts records the pool's deterministic counts, including the
// Go allocations it takes to decode every delta once.
func ingestCounts(r *report, builds []*ingestBuild) error {
	var before, after runtimeAllocs
	before.read()
	for _, b := range builds {
		for _, p := range b.payloads {
			if _, err := profile.DecodeDCGBytes(p); err != nil {
				return err
			}
		}
	}
	after.read()
	for _, b := range builds {
		for _, d := range b.deltas {
			r.counts["delta_edges"] += float64(d.NumEdges())
			r.counts["delta_weight"] += d.Total()
			r.counts["deltas"]++
		}
	}
	r.counts["builds"] = float64(len(builds))
	r.counts["decode_allocs"] = after.n - before.n
	return nil
}

// pushRec is one request of the flood: when it completed, and its
// round trip at reference speed and as measured.
type pushRec struct {
	done         time.Time
	latMs, rawMs float64
}

// segRate is one pusher's request rate between two calibrations, at
// reference speed.
type segRate struct {
	rate   float64
	traced bool
}

func runIngest(cfg config, r *report) error {
	tr := r.tr
	tr.set(cfg.trace)
	base := stateBase(cfg)
	st, err := timeSetups(cfg, r, func(rep int) (ingestSetup, error) {
		sp := tr.begin("bench.setup", 0)
		defer sp.end()
		builds, err := ingestPool(cfg, tr, sp.id)
		if err != nil {
			return ingestSetup{}, err
		}
		if rep == 0 {
			if err := ingestCounts(r, builds); err != nil {
				return ingestSetup{}, err
			}
		}
		dir, err := freshDir(base, "ingest")
		if err != nil {
			return ingestSetup{}, err
		}
		dsp := tr.begin("daemon.Run", sp.id)
		d, err := startDaemon(daemon.Config{Shards: ingestShards, StateDir: dir, CheckpointEvery: ingestCheckpoint})
		dsp.end()
		return ingestSetup{builds: builds, d: d, dir: dir}, err
	}, func(s ingestSetup) {
		s.d.stop()
		os.RemoveAll(s.dir)
	})
	defer func() {
		st.d.stop()
		os.RemoveAll(st.dir)
	}()
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	pushers := min(2, runtime.NumCPU())
	acked := make([][][]int, pushers) // acked[pusher][build][variant]
	recs := make([][]pushRec, pushers)
	segs := make([][]segRate, pushers)
	start := time.Now()
	end := deadline(cfg)
	stopToggle := toggleTracing(cfg, tr)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < pushers; i++ {
		acked[i] = make([][]int, len(st.builds))
		for b := range acked[i] {
			acked[i][b] = make([]int, ingestVariants)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &api.Client{BaseURL: st.d.url, HTTPClient: hc}
			id := fmt.Sprintf("flood-%d", i)
			rng := rand.New(rand.NewSource(cfg.seed*31 + int64(i)))
			var seq uint64
			var attempts int64
			var errs []error
			// Every ingestCalibEvery requests the pusher times the
			// calibration loop; the requests in between are scaled to
			// reference speed by the mean of the two calibrations.
			cal := newCalibrator()
			speed := cal.speed()
			segStart, segTraced := time.Now(), tr.on.Load()
			var seg []pushRec
			closeSeg := func() {
				after := cal.speed()
				k := (speed + after) / 2
				if len(seg) > 0 {
					wall := seg[len(seg)-1].done.Sub(segStart).Seconds() * k
					segs[i] = append(segs[i], segRate{rate: float64(len(seg)) / wall, traced: segTraced})
				}
				for _, rec := range seg {
					rec.latMs *= k
					recs[i] = append(recs[i], rec)
				}
				seg, speed = seg[:0], after
				segStart, segTraced = time.Now(), tr.on.Load()
			}
			for time.Now().Before(end) {
				b := rng.Intn(len(st.builds))
				v := rng.Intn(ingestVariants)
				build := st.builds[b]
				seq++
				// An increment that failed is re-sent under the same
				// stamp until it is acked, as a real pusher must.
				for {
					sp := tr.begin("api.PushDeltaKeyed", 0)
					t0 := time.Now()
					resp, err := client.PushDeltaKeyed(id, seq, build.key, build.payloads[v])
					t1 := time.Now()
					sp.end()
					if err == nil && !resp.Applied {
						err = fmt.Errorf("push %s seq %d acked as a duplicate", id, seq)
					}
					attempts++
					raw := t1.Sub(t0).Seconds() * 1e3
					if err != nil {
						errs = append(errs, err)
						seg = append(seg, pushRec{done: t1, latMs: inf, rawMs: raw})
						if time.Now().Before(end) && resp == nil {
							continue
						}
						break
					}
					seg = append(seg, pushRec{done: t1, latMs: raw, rawMs: raw})
					acked[i][b][v]++
					break
				}
				if len(seg) >= ingestCalibEvery {
					closeSeg()
				}
			}
			closeSeg()
			mu.Lock()
			r.ops(attempts, errs)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	stopToggle()
	elapsed := time.Since(start)
	r.metrics["e2e.heap_mb"] = retainedHeapMB()

	var all []pushRec
	for _, rs := range recs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	ingestMetrics(cfg, r, all, segs, elapsed)

	// Weight conservation: every build's graph on the daemon equals the
	// benchmark's own merge of the deltas the daemon acknowledged.
	want := map[api.ProgramKey]*profile.DCG{}
	for b, build := range st.builds {
		g := profile.NewDCG()
		for v, d := range build.deltas {
			n := 0
			for i := range acked {
				n += acked[i][b][v]
			}
			for _, e := range d.Edges() {
				g.AddSample(e, d.Weight(e)*float64(n))
			}
		}
		if g.NumEdges() > 0 {
			want[build.key] = g
		}
	}
	checkBuilds(r, hc, st.d.url, want)

	client := &api.Client{BaseURL: st.d.url, HTTPClient: hc}
	m, err := client.Metrics()
	r.op(err)
	if err == nil && m.IngestLat != nil {
		r.metrics["daemon.ingest_server_p50_ms"] = m.IngestLat.P50
		r.metrics["daemon.ingest_server_p99_ms"] = m.IngestLat.P99
		r.metrics["daemon.merge_ms_mean"] = m.MergeMsMean
		var lat []float64
		for _, rec := range all {
			lat = append(lat, rec.rawMs)
		}
		r.metrics["api.transport_ms"] = mean(lat) - m.IngestLat.Mean
	}
	var edges float64
	for _, g := range want {
		edges += float64(g.NumEdges())
	}
	r.metrics["dcgstore.edges"] = edges
	r.metrics["dcgstore.keys"] = float64(len(want))
	if cfg.trace {
		return ingestLayers(cfg, r, st, hc)
	}
	return nil
}

// ingestMetrics turns the flood's requests into the end-to-end
// metrics: the summed median request rate of the pushers, and the
// median over fixed-size windows of the p50 and p99 round trip.
func ingestMetrics(cfg config, r *report, all []pushRec, segs [][]segRate, elapsed time.Duration) {
	var rate, rawRate float64
	var off, on []float64
	for _, ss := range segs {
		var o, t []float64
		for _, s := range ss {
			if s.traced {
				t = append(t, s.rate)
			} else {
				o = append(o, s.rate)
			}
		}
		rate += median(o)
		off, on = append(off, median(o)), append(on, median(t))
	}
	if cfg.trace {
		var so, sn float64
		for i := range off {
			so, sn = so+off[i], sn+on[i]
		}
		r.metrics["trace.overhead_pct"] = overheadPct([]float64{so}, []float64{sn})
	}
	rawRate = float64(len(all)) / elapsed.Seconds()

	lat := make([]float64, len(all))
	for i, rec := range all {
		lat[i] = rec.latMs
	}
	p50, tail, pct := windowed(lat, ingestWindow)
	r.metrics["throughput"] = rate
	r.metrics["latency_p50_ms"] = p50
	r.metrics["e2e.latency_tail_ms"] = tail
	r.notef("ingest-flood: %d requests in %.1f s (%.0f req/s measured); throughput = ingest_req_per_s, latency = push round trip, medians over windows of %d requests",
		len(all), elapsed.Seconds(), rawRate, ingestWindow)
	r.notef("ingest_req_per_s %.1f  ingest_p50_ms %.4f  ingest_p%g_ms %.4f (reference speed)", rate, p50, pct, tail)
}

// ingestLayers times the profile and dcgstore calls the daemon makes on
// every ingest, on the flood's own deltas, plus a DeltaPusher round
// trip to the live daemon.
func ingestLayers(cfg config, r *report, st ingestSetup, hc *http.Client) error {
	tr := r.tr
	sp := tr.begin("bench.layers", 0)
	defer sp.end()
	var items []keyedDelta
	for _, b := range st.builds {
		for _, d := range b.deltas {
			items = append(items, keyedDelta{key: b.key, delta: d})
		}
	}
	if err := storeLayers(cfg, r, sp.id, items); err != nil {
		return err
	}
	big := st.builds[0]
	client := dcgstore.NewClient(st.d.url)
	client.HTTPClient = hc
	client.Key = big.key
	pusher := dcgstore.NewDeltaPusher(client)
	cur := profile.NewDCG()
	i := 0
	s, err := tr.measure("dcgstore.DeltaPusher.Push", sp.id, 20, func() error {
		cur.Merge(big.deltas[i%len(big.deltas)])
		i++
		return pusher.Push(cur)
	})
	r.op(err)
	if err != nil {
		return err
	}
	r.metrics["dcgstore.push_ms"] = s * 1e3
	return nil
}
