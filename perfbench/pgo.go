package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/daemon"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

// pgo-loop: the paper's collect → aggregate → plan → exploit loop.
// One loop goroutine runs CBS pusher VMs round-robin; each round
// every pusher pushes its delta to a leaf cbsd through a DeltaPusher,
// and the loop then flushes the leaf to the root, so the leaf's own
// forward timer never sets the latency. One puller.Run goroutine, with
// verification on, polls the root's plan through the leaf's relay.
// This is the only workload where plan compile, the plan wire format,
// apply/verify and federation run, and the only one where reads
// (plan compiles) and writes (merges) share the store.

const (
	pgoProgram     = "jess" // the program the puller runs
	pgoPullDivisor = 4      // the puller's input is jess's small input / 4
	pgoPullIters   = 4
	pgoPullEvery   = 2
	// pgoRoundCycles is the modeled work each pusher does per round
	// before it pushes: about 20 rounds, so 20 push-to-plan samples, a
	// second.
	pgoRoundCycles = 1_500_000
	pgoCheckpoint  = time.Second
	// pgoLatWindow is how many push-to-plan samples make one latency
	// window, so each window's tail is its p90.
	pgoLatWindow = 150
)

// pgoPusher is one CBS-profiled VM that pushes its graph each round.
type pgoPusher struct {
	name   string
	key    api.ProgramKey
	m      *vm.VM
	iter   *bytecode.Method
	cbs    *profiler.CBS
	pusher *dcgstore.DeltaPusher
	acked  *profile.DCG // the graph as of the last acknowledged push
	prev   *profile.DCG // the graph as of the push before that
}

type pgoSetup struct {
	progs    map[string]*bytecode.Program // JIT-only prepared, by name
	pristine *bytecode.Program            // the puller's program
	pullSize int64
	pushers  []*pgoPusher
	root     *daemonHandle
	leaf     *daemonHandle
	dirs     []string
	roundDur time.Duration // one puller round, measured alone

	compileMs, prepMs float64
}

func (s *pgoSetup) stop() {
	s.leaf.stop()
	s.root.stop()
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// pgoSources returns the programs of the loop: the puller's program,
// the phase-shifting suite program and a seed-generated phaseshift
// build, so plan epochs really change.
func pgoSources(seed int64) (names, srcs []string, args []int64) {
	jess, phases := bench.ByName(pgoProgram), bench.ByName("phases")
	names = []string{pgoProgram, "phases", fmt.Sprintf("gen-%d-phaseshift", seed)}
	srcs = []string{jess.Source, phases.Source, mj.GenerateWorkload(seed, 4, mj.ShapePhaseShift)}
	args = []int64{jess.Small / pgoPullDivisor, phases.Small / suiteDivisor, 100}
	return names, srcs, args
}

func pgoSetupOnce(cfg config, hc *http.Client, tr *tracer, parent uint64) (*pgoSetup, error) {
	s := &pgoSetup{progs: map[string]*bytecode.Program{}}
	names, srcs, args := pgoSources(cfg.seed)
	for i, name := range names {
		sp := tr.begin("mj.Compile", parent)
		t0 := time.Now()
		prog, err := mj.Compile(srcs[i])
		t1 := time.Now()
		sp.end()
		if err != nil {
			return s, fmt.Errorf("compile %s: %w", name, err)
		}
		sp = tr.begin("inline.Optimize", parent)
		_, err = inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions())
		sp.end()
		s.compileMs += t1.Sub(t0).Seconds() * 1e3
		s.prepMs += time.Since(t1).Seconds() * 1e3
		if err != nil {
			return s, fmt.Errorf("prepare %s: %w", name, err)
		}
		s.progs[name] = prog
	}
	s.pristine, s.pullSize = s.progs[pgoProgram], args[0]

	for _, name := range []string{"root", "leaf"} {
		dir, err := freshDir(stateBase(cfg), "pgo-"+name)
		if err != nil {
			return s, err
		}
		s.dirs = append(s.dirs, dir)
	}
	resolve := func(name, _ string) (*bytecode.Program, error) {
		if p, ok := s.progs[name]; ok {
			return p.Clone(), nil
		}
		return nil, fmt.Errorf("%w: %q", plan.ErrUnknownProgram, name)
	}
	sp := tr.begin("daemon.Run", parent)
	var err error
	s.root, err = startDaemon(daemon.Config{
		Shards: 8, StateDir: s.dirs[0], CheckpointEvery: pgoCheckpoint, ResolveProgram: resolve,
	})
	if err == nil {
		s.leaf, err = startDaemon(daemon.Config{
			Shards: 8, StateDir: s.dirs[1], CheckpointEvery: pgoCheckpoint,
			Upstream: s.root.url, UpstreamID: "leaf-0", SelfURL: "http://leaf-0",
			ForwardEvery: time.Hour,
		})
	}
	sp.end()
	if err != nil {
		return s, err
	}

	// One pusher each runs the phase-shifting programs, then two run
	// the puller's program, each with its own sampling seed. The last
	// pusher's pushes are the push-to-plan samples: it pushes right
	// before the round's flush, so the sample times the flush, the
	// wait for the next poll and the plan fetch, not the other
	// pushers' VM work.
	which := []int{1, 2, 0, 0}
	if cfg.tiny {
		which = []int{1, 2, 0}
	}
	for i, pi := range which {
		name := names[pi]
		prog := s.progs[name]
		client := dcgstore.NewClient(s.leaf.url)
		client.HTTPClient = hc
		client.Key = api.ProgramKey{Program: name, Version: prog.Version()}
		if i < 3 {
			if _, err := client.RegisterManifest(prog.BuildManifest(name)); err != nil {
				return s, fmt.Errorf("register %s: %w", name, err)
			}
		}
		p, err := newPgoPusher(name, prog, args[pi], cfg.seed*7+int64(i))
		if err != nil {
			return s, err
		}
		p.key = client.Key
		p.pusher = dcgstore.NewDeltaPusherWithID(client, fmt.Sprintf("pgo-%d", i))
		s.pushers = append(s.pushers, p)
	}
	t0 := time.Now()
	if _, _, err := puller.RunRound(s.pristine.Clone(), s.pullSize, pgoPullIters); err != nil {
		return s, err
	}
	s.roundDur = time.Since(t0)
	return s, nil
}

// newPgoPusher sets up a CBS-profiled VM on a clone of prog, with the
// setup(arg) call of the benchmark protocol done.
func newPgoPusher(name string, prog *bytecode.Program, arg, cbsSeed int64) (*pgoPusher, error) {
	m := vm.New(prog.Clone())
	m.MaxSteps = vmMaxSteps
	c := profiler.NewCBS(profiler.Config{Stride: cbsStride, SamplesPerTick: cbsSamples, Seed: cbsSeed})
	m.SetProfiler(c)
	m.SetTimer(cbsTimerPeriod)
	setup := m.Prog.MethodByName("$Globals.setup")
	iter := m.Prog.MethodByName("$Globals.iter")
	if setup == nil || iter == nil {
		return nil, fmt.Errorf("%s does not follow the setup/iter protocol", name)
	}
	if _, err := m.Call(setup, vm.IntV(arg)); err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	return &pgoPusher{name: name, m: m, iter: iter, cbs: c, acked: profile.NewDCG(), prev: profile.NewDCG()}, nil
}

// round runs the pusher's VM for pgoRoundCycles more modeled cycles.
func (p *pgoPusher) round() (baseCycles uint64, err error) {
	start, before := p.m.Cycles, p.m.BaseCycles()
	for p.m.Cycles-start < pgoRoundCycles {
		if _, err := p.m.Call(p.iter); err != nil {
			return 0, fmt.Errorf("%s iter: %w", p.name, err)
		}
	}
	return p.m.BaseCycles() - before, nil
}

// push sends the pusher's graph growth and reports whether anything
// new was acknowledged.
func (p *pgoPusher) push() (bool, error) {
	before := p.pusher.Pushes
	if err := p.pusher.Push(p.cbs.Graph); err != nil {
		return false, err
	}
	if p.pusher.Pending() != 0 {
		return false, fmt.Errorf("%s: %d increments unacknowledged", p.name, p.pusher.Pending())
	}
	p.prev, p.acked = p.acked, p.cbs.Graph.Clone()
	return p.pusher.Pushes > before, nil
}

// pollEvent is one plan poll of the puller: when it started, and when
// the puller ran its result (the swap when the plan changed, the end
// of the fetch when it did not).
type pollEvent struct{ start, end time.Time }

// pullWatch observes the puller through its plan client's transport
// and its Observe hook. Both run on the puller's goroutine.
type pullWatch struct {
	base      http.RoundTripper
	tr        *tracer
	pollStart time.Time
	fetchSpan span
	events    []pollEvent
	lastHash  uint64
	lastEpoch uint64
	polls     int
	notMod    int
	fetchMs   []float64
	failures  []error
	final     *plan.Plan
}

func (w *pullWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	w.pollStart = time.Now()
	w.fetchSpan = w.tr.begin("federation.relay_fetch", 0)
	resp, err := w.base.RoundTrip(req)
	w.polls++
	w.fetchMs = append(w.fetchMs, time.Since(w.pollStart).Seconds()*1e3)
	switch {
	case err != nil:
		w.failures = append(w.failures, fmt.Errorf("plan poll: %w", err))
	case resp.StatusCode == http.StatusNotModified:
		w.notMod++
	case resp.StatusCode != http.StatusOK:
		w.failures = append(w.failures, fmt.Errorf("plan poll: HTTP %d", resp.StatusCode))
	}
	return resp, err
}

func (w *pullWatch) observe(p *plan.Plan, swapped bool) {
	now := time.Now()
	if !swapped {
		w.fetchSpan.end()
		changed := p.Hash != w.lastHash || p.Epoch != w.lastEpoch
		w.lastHash, w.lastEpoch = p.Hash, p.Epoch
		w.final = p
		ev := pollEvent{start: w.pollStart, end: now}
		if changed {
			// The end point is the swap, which Observe reports next.
			ev.end = time.Time{}
		}
		w.events = append(w.events, ev)
		return
	}
	if n := len(w.events); n > 0 && w.events[n-1].end.IsZero() {
		w.events[n-1].end = now
	}
}

// pushSample is one acknowledged push of the puller's program by the
// round's last pusher: acked by the leaf at ack, and at the root once
// the flush that carried it returned. speed is the host's calibrated
// speed around the push.
type pushSample struct {
	ack, atRoot time.Time
	speed       float64
}

func runPGO(cfg config, r *report) error {
	tr := r.tr
	tr.set(cfg.trace)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var setupMs [][2]float64
	st, err := timeSetups(cfg, r, func(int) (*pgoSetup, error) {
		sp := tr.begin("bench.setup", 0)
		defer sp.end()
		s, err := pgoSetupOnce(cfg, hc, tr, sp.id)
		setupMs = append(setupMs, [2]float64{s.compileMs, s.prepMs})
		return s, err
	}, func(s *pgoSetup) { s.stop() })
	if st != nil {
		defer st.stop()
	}
	if err != nil {
		return err
	}
	leafAPI := &api.Client{BaseURL: st.leaf.url, HTTPClient: hc}

	if err := pgoCounts(cfg, r, st.pristine, st.pullSize); err != nil {
		return err
	}

	watch := &pullWatch{base: hc.Transport, tr: tr}
	pullHTTP := &http.Client{Timeout: 30 * time.Second, Transport: watch}
	var pstats []puller.Stats
	var pullErr error
	pullDone := make(chan struct{})
	end := deadline(cfg)
	start := time.Now()
	toggleStop := toggleTracing(cfg, tr)
	go func() {
		defer close(pullDone)
		// puller.Run runs a fixed number of rounds. The first run is
		// sized to at most five seconds from one round measured at
		// set-up (doubled: the loop goroutine shares the CPUs); each later run
		// covers the rest of the measured phase at the round time the
		// previous run achieved.
		roundDur := 2 * st.roundDur
		for first := true; first || time.Now().Before(end); first = false {
			budget := min(time.Until(end), 5*time.Second)
			if !first {
				budget = time.Until(end)
			}
			rounds := max(pgoPullEvery*2, int(budget/roundDur))
			if cfg.tiny {
				rounds = pgoPullEvery * 2
			}
			t0 := time.Now()
			client := plan.NewClient(st.leaf.url)
			client.SetHTTPClient(pullHTTP)
			sp := tr.begin("puller.Run", 0)
			s, err := puller.Run(st.pristine, puller.Options{
				Program: pgoProgram, Size: st.pullSize, Rounds: rounds, Every: pgoPullEvery,
				Iters: pgoPullIters, Verify: true, Opts: inline.DefaultOptions(),
				Client: client, Observe: watch.observe,
			})
			sp.end()
			pstats = append(pstats, s)
			if err != nil {
				pullErr = err
				return
			}
			roundDur = time.Since(t0) / time.Duration(rounds)
		}
	}()

	// The loop: rounds of every pusher's VM work and push, then one
	// leaf flush, until the puller is done.
	type roundRec struct {
		rate   float64 // app Mcyc/s at reference speed
		traced bool
	}
	var (
		rounds   []roundRec
		samples  []pushSample
		pushMs   []float64
		flushMs  []float64
		vmWall   float64
		vmCycles float64
		loopErrs []error
		attempts int64
	)
	cal := newCalibrator()
	speed := cal.speed()
	var rawCycles, rawWall float64
	running := true
	for running {
		select {
		case <-pullDone:
			running = false
			continue
		default:
		}
		traced := tr.on.Load()
		rsp := tr.begin("bench.round", 0)
		r0 := time.Now()
		var cycles float64
		var ack time.Time
		for pi, p := range st.pushers {
			vsp := tr.begin("profiler.cbs", rsp.id)
			t0 := time.Now()
			c, err := p.round()
			d := time.Since(t0).Seconds()
			vsp.end()
			attempts++
			if err != nil {
				loopErrs = append(loopErrs, err)
				continue
			}
			cycles += float64(c)
			vmWall += d
			vmCycles += float64(c)
			psp := tr.begin("dcgstore.DeltaPusher.Push", rsp.id)
			t1 := time.Now()
			pushed, err := p.push()
			t2 := time.Now()
			psp.end()
			attempts++
			if err != nil {
				loopErrs = append(loopErrs, err)
				continue
			}
			pushMs = append(pushMs, t2.Sub(t1).Seconds()*1e3)
			if pushed && pi == len(st.pushers)-1 {
				ack = t2
			}
		}
		fsp := tr.begin("federation.flush", rsp.id)
		t0 := time.Now()
		_, err := leafAPI.Flush()
		t1 := time.Now()
		fsp.end()
		rsp.end()
		after := cal.speed()
		k := (speed + after) / 2
		speed = after
		attempts++
		if err != nil {
			loopErrs = append(loopErrs, err)
		} else {
			flushMs = append(flushMs, t1.Sub(t0).Seconds()*1e3)
			if !ack.IsZero() {
				samples = append(samples, pushSample{ack: ack, atRoot: t1, speed: k})
			}
		}
		wall := t1.Sub(r0).Seconds()
		rawCycles += cycles
		rawWall += wall
		rounds = append(rounds, roundRec{rate: cycles / (wall * k) / 1e6, traced: traced})
	}
	toggleStop()
	elapsed := time.Since(start)
	r.metrics["e2e.heap_mb"] = retainedHeapMB()
	r.ops(attempts, loopErrs)
	if pullErr != nil {
		return fmt.Errorf("puller: %w", pullErr)
	}

	// Final drain and poll: every pusher's last growth reaches the
	// root, then a fresh puller fetches, verifies and runs the plan.
	for _, p := range st.pushers {
		_, err := p.push()
		r.op(err)
	}
	_, err = leafAPI.Flush()
	r.op(err)
	finalClient := plan.NewClient(st.leaf.url)
	finalClient.SetHTTPClient(pullHTTP)
	fin, err := puller.Run(st.pristine, puller.Options{
		Program: pgoProgram, Size: st.pullSize, Rounds: 1, Every: 1, Iters: pgoPullIters,
		Verify: true, Opts: inline.DefaultOptions(), Client: finalClient, Observe: watch.observe,
	})
	r.op(err)
	pstats = append(pstats, fin)

	// Checks: no kill switch, no refused plan, no failed poll, and
	// weight conservation from every pusher through leaf and root.
	swaps, kills := pullChecks(r, pstats)
	r.ops(int64(watch.polls), watch.failures)
	want := map[api.ProgramKey]*profile.DCG{}
	for _, p := range st.pushers {
		if want[p.key] == nil {
			want[p.key] = profile.NewDCG()
		}
		want[p.key].Merge(p.acked)
	}
	checkBuilds(r, hc, st.root.url, want)

	// End-to-end metrics.
	lat := pushToPlan(samples, watch.events)
	p50, tail, pct := windowed(lat, pgoLatWindow)
	r.metrics["latency_p50_ms"] = p50
	r.metrics["e2e.latency_tail_ms"] = tail
	var offRates, onRates []float64
	for _, rr := range rounds {
		if rr.traced {
			onRates = append(onRates, rr.rate)
		} else {
			offRates = append(offRates, rr.rate)
		}
	}
	r.metrics["throughput"] = median(offRates)
	if cfg.trace {
		r.metrics["trace.overhead_pct"] = overheadPct(offRates, onRates)
	}
	speedup := 0.0
	if fin.LastCycles > 0 {
		speedup = (float64(fin.BaseCycles)/float64(fin.LastCycles) - 1) * 100
	}
	r.metrics["plan.speedup_pct"] = speedup
	r.notef("pgo-loop: %d loop rounds, %d polls, %d swaps in %.1f s; throughput = app_mcyc_per_s of the pusher VMs (median round), latency = push to plan",
		len(rounds), watch.polls, swaps, elapsed.Seconds())
	r.notef("app_mcyc_per_s %.2f at reference speed, %.2f measured; push_to_plan_p50_ms %.3f  push_to_plan_tail_ms %.3f (p%g, medians over windows of %d of %d samples, reference speed)",
		median(offRates), rawCycles/rawWall/1e6, p50, tail, pct, pgoLatWindow, len(lat))
	if watch.final != nil {
		r.notef("plan_speedup_pct %.3f (final plan epoch %d, %d decisions, hash %016x)",
			speedup, watch.final.Epoch, len(watch.final.Decisions), watch.final.Hash)
		r.metrics["plan.epochs"] = float64(watch.final.Epoch)
		r.metrics["plan.decisions"] = float64(len(watch.final.Decisions))
	}

	// Per-layer metrics measured in the loop.
	var samplesTaken, profCycles, baseCycles float64
	for _, p := range st.pushers {
		samplesTaken += float64(p.cbs.SamplesTaken)
		profCycles += float64(p.m.ProfilingCycles)
		baseCycles += float64(p.m.BaseCycles())
	}
	r.metrics["profiler.cbs_mcyc_per_s"] = vmCycles / vmWall / 1e6
	r.metrics["profiler.cbs_samples"] = samplesTaken
	r.metrics["profiler.modeled_overhead_pct"] = profCycles / baseCycles * 100
	r.metrics["dcgstore.push_ms"] = mean(pushMs)
	r.metrics["federation.flush_ms"] = mean(flushMs)
	r.metrics["federation.relay_fetch_ms"] = mean(watch.fetchMs)
	r.metrics["plan.not_modified_frac"] = float64(watch.notMod) / float64(max(1, watch.polls))
	r.metrics["puller.swaps"] = float64(swaps)
	r.metrics["puller.kills"] = float64(kills)
	if m, err := leafAPI.Metrics(); err == nil && m.IngestLat != nil {
		r.metrics["daemon.ingest_server_p50_ms"] = m.IngestLat.P50
		r.metrics["daemon.ingest_server_p99_ms"] = m.IngestLat.P99
		r.metrics["daemon.merge_ms_mean"] = m.MergeMsMean
	}
	var edges float64
	for _, g := range want {
		edges += float64(g.NumEdges())
	}
	r.metrics["dcgstore.edges"] = edges
	r.metrics["dcgstore.keys"] = float64(len(want))
	var cms, pms []float64
	for _, s := range setupMs {
		cms, pms = append(cms, s[0]), append(pms, s[1])
	}
	r.metrics["mj.compile_ms"] = median(cms)
	r.metrics["inline.prepare_ms"] = median(pms)
	if !cfg.trace {
		return nil
	}
	return pgoLayers(cfg, r, st, hc)
}

// pullChecks checks that no puller run fired its kill switch or
// refused a plan compiled for another version, and returns the swap
// and kill totals.
func pullChecks(r *report, stats []puller.Stats) (swaps, kills int) {
	rejects := 0
	for _, s := range stats {
		swaps += s.Swaps
		rejects += s.VersionRejects
		if s.Killed {
			kills++
		}
	}
	r.check(kills == 0, "puller kill switch fired in %d of %d runs", kills, len(stats))
	r.check(rejects == 0, "puller refused %d plans for another version", rejects)
	return swaps, kills
}

// pushToPlan matches every push of the puller's program with the first
// poll that started after the push reached the root, and returns the
// time from the push's ack to the puller running that poll's result,
// at reference speed.
func pushToPlan(samples []pushSample, events []pollEvent) []float64 {
	var lat []float64
	j := 0
	for _, s := range samples {
		for j < len(events) && events[j].start.Before(s.atRoot) {
			j++
		}
		k := j
		for k < len(events) && events[k].end.IsZero() {
			k++ // a changed plan that was never swapped in
		}
		if k == len(events) {
			break
		}
		lat = append(lat, events[k].end.Sub(s.ack).Seconds()*1e3*s.speed)
	}
	return lat
}

// pgoCounts replays the loop offline — the two pushers of the puller's
// program, with the loop's sampling seeds, for a fixed number of
// rounds, one plan compile per round chained through the prior plan —
// and records its deterministic counts.
func pgoCounts(cfg config, r *report, pristine *bytecode.Program, pullSize int64) error {
	names, _, args := pgoSources(cfg.seed)
	var prior *plan.Plan
	epochs := map[uint64]bool{}
	var cycles, instrs, calls, samples float64
	agg := profile.NewDCG()
	n := 8
	if cfg.tiny {
		n = 2
	}
	var pushers []*pgoPusher
	for i := 0; i < 2; i++ {
		p, err := newPgoPusher(names[0], pristine, args[0], cfg.seed*7+int64(i+2))
		if err != nil {
			return err
		}
		pushers = append(pushers, p)
	}
	for round := 0; round < n; round++ {
		for _, p := range pushers {
			if _, err := p.round(); err != nil {
				return err
			}
		}
		agg = profile.NewDCG()
		for _, p := range pushers {
			agg.Merge(p.cbs.Graph)
		}
		pl, err := plan.Compile(pgoProgram, pristine, agg, plan.DefaultParams(), prior)
		if err != nil {
			return err
		}
		prior = pl
		epochs[pl.Epoch] = true
	}
	for _, p := range pushers {
		cycles += float64(p.m.Cycles)
		instrs += float64(p.m.Instrs)
		calls += float64(p.m.Calls)
		samples += float64(p.cbs.SamplesTaken)
	}
	cand := pristine.Clone()
	if _, err := plan.Apply(cand, prior, inline.DefaultOptions()); err != nil {
		return err
	}
	_, base, err := puller.RunRound(pristine.Clone(), pullSize, pgoPullIters)
	if err != nil {
		return err
	}
	_, opt, err := puller.RunRound(cand, pullSize, pgoPullIters)
	if err != nil {
		return err
	}
	r.counts["replay_rounds"] = float64(n)
	r.counts["modeled_cycles"] = cycles
	r.counts["instrs"] = instrs
	r.counts["calls"] = calls
	r.counts["cbs_samples"] = samples
	r.counts["plan_epoch"] = float64(prior.Epoch)
	r.counts["plan_epochs_seen"] = float64(len(epochs))
	r.counts["plan_decisions"] = float64(len(prior.Decisions))
	r.counts["plan_hash"] = float64(prior.Hash >> 12) // float64 holds 52 bits exactly
	var buf bytes.Buffer
	if _, err := agg.WriteTo(&buf); err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	r.counts["profile_hash"] = float64(h.Sum64() >> 12)
	r.counts["plan_base_cycles"] = float64(base)
	r.counts["plan_cycles"] = float64(opt)
	return nil
}

// pgoLayers times the plan, wire, apply and verify steps on the root's
// final snapshot, and a plan fetch from the root that recompiles.
func pgoLayers(cfg config, r *report, st *pgoSetup, hc *http.Client) error {
	tr := r.tr
	sp := tr.begin("bench.layers", 0)
	defer sp.end()
	key := api.ProgramKey{Program: pgoProgram, Version: st.pristine.Version()}
	snap, err := fetchBuild(hc, st.root.url, key)
	if err != nil {
		return err
	}
	var pl *plan.Plan
	s, err := tr.measure("plan.Compile", sp.id, 20, func() error {
		var err error
		pl, err = plan.Compile(pgoProgram, st.pristine, snap, plan.DefaultParams(), nil)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["plan.compile_ms"] = s * 1e3
	s, err = tr.measure("plan.Encode+ReadPlan", sp.id, 200, func() error {
		_, err := plan.ReadPlan(bytes.NewReader(pl.Encode()))
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["plan.wire_us"] = s * 1e6
	var cand *bytecode.Program
	s, err = tr.measure("plan.Apply", sp.id, 20, func() error {
		cand = st.pristine.Clone()
		_, err := plan.Apply(cand, pl, inline.DefaultOptions())
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["plan.apply_ms"] = s * 1e3
	s, err = tr.measure("puller.RunRound", sp.id, 10, func() error {
		_, _, err := puller.RunRound(cand, st.pullSize, pgoPullIters)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["puller.verify_ms"] = s * 1e3
	var bare uint64
	s, err = tr.measure("vm.Run", sp.id, 10, func() error {
		var err error
		_, bare, err = puller.RunRound(st.pristine.Clone(), st.pullSize, pgoPullIters)
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["vm.bare_mcyc_per_s"] = float64(bare) / s / 1e6

	// A fetch that recompiles: each is preceded by a one-edge push to
	// the root (an edge the puller's program already has), which
	// invalidates the cached plan.
	push := dcgstore.NewClient(st.root.url)
	push.HTTPClient = hc
	push.Key = key
	edges := snap.Edges()
	var fetchMs []float64
	for i := 0; i < 10 && len(edges) > 0; i++ {
		d := profile.NewDCG()
		d.AddSample(edges[0], 1)
		if err := push.Push(d); err != nil {
			r.op(err)
			return err
		}
		client := plan.NewClient(st.root.url)
		client.SetHTTPClient(hc)
		fsp := tr.begin("plan.Client.FetchVersion", sp.id)
		t0 := time.Now()
		_, _, err := client.FetchVersion(pgoProgram, key.Version)
		fetchMs = append(fetchMs, time.Since(t0).Seconds()*1e3)
		fsp.end()
		r.op(err)
	}
	r.metrics["plan.fetch_ms"] = median(fetchMs)

	var items []keyedDelta
	for _, p := range st.pushers {
		items = append(items, keyedDelta{key: p.key, delta: p.acked, prev: p.prev, cur: p.acked})
	}
	return storeLayers(cfg, r, sp.id, items)
}
