package main

import (
	"bytes"
	"fmt"
	"time"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// suite-run: every suite program plus one seed-generated program per
// generator shape, run serially under each profile source in turn.
// This is where a user's program spends its time; no daemon, store or
// plan code runs here.

// source is a profile source a program runs under.
type source int

const (
	srcBare source = iota
	srcCBS
	srcExhaustive
	srcMincover
	numSources
)

// spanName names the span around a run under each source: the module
// whose code the run exercises besides the VM.
var spanName = [numSources]string{"vm.Run", "profiler.cbs", "profiler.exhaustive", "mincover.run"}

// The CBS configuration cbsvm runs with by default, except that the
// timer period is shrunk by suiteDivisor along with the inputs, so a
// run takes as many samples as cbsvm takes at the small size.
const (
	cbsStride      = 3
	cbsSamples     = 16
	cbsTimerPeriod = 3_000_000 / suiteDivisor
	// vmMaxSteps stops a runaway program; no generated or suite
	// program comes near it.
	vmMaxSteps = 1 << 36
)

// suiteDivisor shrinks each suite program's small input so one pass
// over every program under every source takes about a second; the
// median is then taken over many passes.
const suiteDivisor = 8

// suiteLatWindow is how many passes make one latency window: 400 runs,
// so each window's tail is its p95.
const suiteLatWindow = 5

// suiteProg is one program of the suite-run workload.
type suiteProg struct {
	name string
	src  string
	arg  int64

	prog  *bytecode.Program // JIT-only prepared, as cbsvm runs it
	cover *mincover.Cover

	refRet int64
	refOut []int64
	exh    []byte // canonical bytes of the exhaustive DCG
}

// suitePrograms lists the programs for a seed: the 15 suite
// benchmarks and one generated workload per shape.
func suitePrograms(seed int64, tiny bool) []*suiteProg {
	var ps []*suiteProg
	all := bench.All()
	div := int64(suiteDivisor)
	if tiny {
		all, div = all[:3], 64
	}
	for _, b := range all {
		ps = append(ps, &suiteProg{name: b.Name, src: b.Source, arg: max(1, b.Small/div)})
	}
	shapes := mj.Shapes()
	if tiny {
		shapes = shapes[:2]
	}
	for i, shape := range shapes {
		s := seed*1000 + int64(i)
		ps = append(ps, &suiteProg{
			name: fmt.Sprintf("gen-%d-%s", s, shape),
			src:  mj.GenerateWorkload(s, 4, shape),
			arg:  50 + s%50,
		})
	}
	return ps
}

// prepare compiles and prepares every program the way cbsvm does before
// a run, computes its mincover when withCover is set, and returns the
// milliseconds spent in each module.
func prepare(ps []*suiteProg, withCover bool, tr *tracer, parent uint64) (compileMs, prepMs, analyzeMs float64, err error) {
	for _, p := range ps {
		sp := tr.begin("mj.Compile", parent)
		t0 := time.Now()
		prog, err := mj.Compile(p.src)
		t1 := time.Now()
		sp.end()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("compile %s: %w", p.name, err)
		}
		sp = tr.begin("inline.Optimize", parent)
		_, err = inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions())
		t2 := time.Now()
		sp.end()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("prepare %s: %w", p.name, err)
		}
		p.prog = prog
		compileMs += t1.Sub(t0).Seconds() * 1e3
		prepMs += t2.Sub(t1).Seconds() * 1e3
		if withCover {
			sp = tr.begin("mincover.New", parent)
			p.cover = mincover.New(prog).Cover
			sp.end()
			analyzeMs += time.Since(t2).Seconds() * 1e3
		}
	}
	return compileMs, prepMs, analyzeMs, nil
}

// reference runs every program's main under the MJ reference
// interpreter, which shares no code with the compiler or the VM.
func reference(ps []*suiteProg) error {
	for _, p := range ps {
		toks, err := mj.Lex(p.src)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.name, err)
		}
		ast, err := mj.Parse(toks)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.name, err)
		}
		if err := mj.Check(ast); err != nil {
			return fmt.Errorf("reference %s: %w", p.name, err)
		}
		in := mj.NewRefInterp(ast, 1<<40)
		ret, err := in.CallFunction("main", p.arg)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.name, err)
		}
		p.refRet, p.refOut = ret, in.Output
	}
	return nil
}

// runResult is one program run under one source.
type runResult struct {
	m        *vm.VM
	ret      int64
	graph    *profile.DCG // nil for a bare run
	cbs      *profiler.CBS
	mc       *mincover.Profiler
	finalize time.Duration
}

// runOnce runs p's main under src on a fresh VM. cbsSeed seeds the CBS
// sampler's skip policy.
func runOnce(p *suiteProg, src source, cbsSeed int64, tr *tracer, parent uint64) (runResult, error) {
	sp := tr.begin(spanName[src], parent)
	defer sp.end()
	m := vm.New(p.prog)
	m.MaxSteps = vmMaxSteps
	res := runResult{m: m}
	switch src {
	case srcCBS:
		res.cbs = profiler.NewCBS(profiler.Config{Stride: cbsStride, SamplesPerTick: cbsSamples, Seed: cbsSeed})
		m.SetProfiler(res.cbs)
		m.SetTimer(cbsTimerPeriod)
		res.graph = res.cbs.Graph
	case srcExhaustive:
		e := profiler.NewInstrumented()
		m.SetProfiler(e)
		res.graph = e.Graph
	case srcMincover:
		res.mc = mincover.FromCover(p.cover)
		m.SetProfiler(res.mc)
		res.graph = res.mc.Graph
	}
	v, err := m.Run(p.arg)
	if err != nil {
		return res, fmt.Errorf("%s under %s: %w", p.name, spanName[src], err)
	}
	res.ret = v.I
	if res.mc != nil {
		fsp := tr.begin("mincover.Finalize", sp.id)
		t0 := time.Now()
		err := res.mc.Finalize()
		res.finalize = time.Since(t0)
		fsp.end()
		if err != nil {
			return res, fmt.Errorf("%s: mincover finalize: %w", p.name, err)
		}
	}
	return res, nil
}

// checkOutput compares a run's result and printed output with the
// reference interpreter's.
func checkOutput(p *suiteProg, res runResult) error {
	if res.ret != p.refRet {
		return fmt.Errorf("%s: VM returned %d, reference %d", p.name, res.ret, p.refRet)
	}
	if len(res.m.Output) != len(p.refOut) {
		return fmt.Errorf("%s: VM printed %d values, reference %d", p.name, len(res.m.Output), len(p.refOut))
	}
	for i, v := range res.m.Output {
		if v != p.refOut[i] {
			return fmt.Errorf("%s: VM output[%d] = %d, reference %d", p.name, i, v, p.refOut[i])
		}
	}
	return nil
}

// checkMincover compares the DCG mincover recovered with the
// exhaustive one, byte for byte in the canonical encoding.
func checkMincover(p *suiteProg, g *profile.DCG) error {
	var b bytes.Buffer
	if _, err := g.WriteTo(&b); err != nil {
		return err
	}
	if !bytes.Equal(b.Bytes(), p.exh) {
		return fmt.Errorf("%s: mincover recovered %d edges (%.0f weight), not the exhaustive DCG", p.name, g.NumEdges(), g.Total())
	}
	return nil
}

// countPass runs every program once under every source and records
// the deterministic counts; it also keeps each program's exhaustive
// DCG for the mincover check.
func countPass(ps []*suiteProg, seed int64, r *report) error {
	var probes, points float64
	for i, p := range ps {
		for src := srcBare; src < numSources; src++ {
			var before, after runtimeAllocs
			before.read()
			res, err := runOnce(p, src, seed+int64(i), nil, 0)
			after.read()
			if err != nil {
				return err
			}
			r.op(checkOutput(p, res))
			m := res.m
			r.counts["modeled_cycles"] += float64(m.Cycles)
			switch src {
			case srcBare:
				r.counts["base_cycles"] += float64(m.BaseCycles())
				r.counts["instrs"] += float64(m.Instrs)
				r.counts["calls"] += float64(m.Calls)
				r.counts["allocs"] += after.n - before.n
			case srcCBS:
				r.counts["cbs_samples"] += float64(res.cbs.SamplesTaken)
				r.counts["cbs_profiling_cycles"] += float64(m.ProfilingCycles)
				r.counts["cbs_base_cycles"] += float64(m.BaseCycles())
			case srcExhaustive:
				var b bytes.Buffer
				if _, err := res.graph.WriteTo(&b); err != nil {
					return err
				}
				p.exh = b.Bytes()
				r.counts["exhaustive_edges"] += float64(res.graph.NumEdges())
			case srcMincover:
				r.op(checkMincover(p, res.graph))
				probes += float64(p.cover.NumProbes())
				points += float64(p.cover.NumPoints())
			}
		}
	}
	r.counts["programs"] = float64(len(ps))
	r.counts["mincover_probes"] = probes
	r.counts["mincover_points"] = points
	n := float64(len(ps))
	r.metrics["vm.instrs"] = r.counts["instrs"]
	r.metrics["vm.calls"] = r.counts["calls"]
	r.metrics["vm.allocs_per_run"] = r.counts["allocs"] / n
	r.metrics["profiler.cbs_samples"] = r.counts["cbs_samples"]
	r.metrics["profiler.modeled_overhead_pct"] = r.counts["cbs_profiling_cycles"] / r.counts["cbs_base_cycles"] * 100
	r.metrics["mincover.probe_ratio"] = probes / points
	return nil
}

func runSuite(cfg config, r *report) error {
	tr := r.tr
	tr.set(cfg.trace)
	type setupTimes struct{ compile, prep, analyze float64 }
	var times []setupTimes
	ps, err := timeSetups(cfg, r, func(int) ([]*suiteProg, error) {
		sp := tr.begin("bench.setup", 0)
		defer sp.end()
		ps := suitePrograms(cfg.seed, cfg.tiny)
		c, p, a, err := prepare(ps, true, tr, sp.id)
		times = append(times, setupTimes{c, p, a})
		return ps, err
	}, func([]*suiteProg) {})
	if err != nil {
		return err
	}
	var cs, pp, as []float64
	for _, t := range times {
		cs, pp, as = append(cs, t.compile), append(pp, t.prep), append(as, t.analyze)
	}
	r.metrics["mj.compile_ms"] = median(cs)
	r.metrics["inline.prepare_ms"] = median(pp)
	r.metrics["mincover.analyze_ms"] = median(as)

	if err := reference(ps); err != nil {
		return err
	}
	if err := countPass(ps, cfg.seed, r); err != nil {
		return err
	}

	// The measured phase: whole passes over every program under every
	// source, until the deadline. A pass always does the same work, so
	// its rate is comparable across passes; the median pass is
	// reported. Traced runs alternate tracing off and on by pass.
	var (
		lat                []float64
		rates, tracedRates []float64
		srcCycles          [numSources]float64
		srcWall            [numSources]float64
		finalizeMs         []float64
	)
	var rawCycles, rawWall float64
	cal := newCalibrator()
	speed := cal.speed()
	end := deadline(cfg)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		traced := cfg.trace && pass%2 == 1
		tr.set(traced)
		sp := tr.begin("bench.pass", 0)
		var cycles, wall float64
		for i, p := range ps {
			for src := srcBare; src < numSources; src++ {
				t0 := time.Now()
				res, err := runOnce(p, src, cfg.seed+int64(i), tr, sp.id)
				raw := time.Since(t0).Seconds()
				after := cal.speed()
				d := raw * (speed + after) / 2
				speed = after

				rawCycles += float64(res.m.BaseCycles())
				rawWall += raw
				r.op(err)
				if err != nil {
					lat = append(lat, inf)
					continue
				}
				if e := checkOutput(p, res); e != nil {
					r.fail(e)
					lat = append(lat, inf)
					continue
				}
				if src == srcMincover {
					if e := checkMincover(p, res.graph); e != nil {
						r.fail(e)
					}
					finalizeMs = append(finalizeMs, res.finalize.Seconds()*1e3)
				}
				lat = append(lat, d*1e3)
				base := float64(res.m.BaseCycles())
				cycles += base
				wall += d
				srcCycles[src] += base
				srcWall[src] += d
			}
		}
		sp.end()
		if traced {
			tracedRates = append(tracedRates, cycles/wall/1e6)
		} else {
			rates = append(rates, cycles/wall/1e6)
		}
	}
	tr.set(cfg.trace)

	r.metrics["e2e.heap_mb"] = retainedHeapMB()
	p50, tail, pct := windowed(lat, suiteLatWindow*len(ps)*int(numSources))
	r.metrics["throughput"] = median(rates)
	r.metrics["latency_p50_ms"] = p50
	r.metrics["e2e.latency_tail_ms"] = tail
	r.notef("suite-run: %d programs x %d sources, %d passes (%d traced); throughput = app_mcyc_per_s (median pass)", len(ps), numSources, len(rates)+len(tracedRates), len(tracedRates))
	r.notef("app_mcyc_per_s %.2f at reference speed, %.2f measured; run latency p50 %.3f ms, p%g %.3f ms (medians over windows of %d passes, %d runs in all)",
		median(rates), rawCycles/rawWall/1e6, p50, pct, tail, suiteLatWindow, len(lat))

	mcyc := func(s source) float64 { return srcCycles[s] / srcWall[s] / 1e6 }
	r.metrics["vm.bare_mcyc_per_s"] = mcyc(srcBare)
	r.metrics["profiler.cbs_mcyc_per_s"] = mcyc(srcCBS)
	r.metrics["profiler.exhaustive_mcyc_per_s"] = mcyc(srcExhaustive)
	r.metrics["mincover.mcyc_per_s"] = mcyc(srcMincover)
	r.metrics["mincover.finalize_ms"] = mean(finalizeMs)
	if cfg.trace {
		r.metrics["trace.overhead_pct"] = overheadPct(rates, tracedRates)
	}
	return nil
}

// overheadPct is how much lower the traced median rate is than the
// untraced one, in percent of the untraced.
func overheadPct(untraced, traced []float64) float64 {
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	u := median(untraced)
	return (u - median(traced)) / u * 100
}
