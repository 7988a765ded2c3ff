// Package gocbs_test hosts the testing.B harness: one benchmark per
// table and figure of the paper, each timing a reduced-scale run of
// the corresponding experiment (the full-scale runs are produced by
// cmd/cbsbench and recorded in EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package gocbs_test

import (
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/experiment"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// quickCfg returns a subsetted, single-seed configuration sized so
// each experiment iteration stays in the low seconds.
func quickCfg(tb testing.TB, names ...string) experiment.Config {
	tb.Helper()
	cfg := experiment.QuickConfig()
	sub, err := bench.Subset(names)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Benchmarks = sub
	return cfg
}

// BenchmarkTable1 regenerates the benchmark-characteristics table.
func BenchmarkTable1(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2A regenerates a reduced overhead/accuracy grid for
// the Jikes RVM flavour.
func BenchmarkTable2A(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	strides := []int{1, 7, 31}
	samples := []int{1, 16, 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table2(cfg, profiler.FlavourRVM, "small", strides, samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2B is the J9-flavour grid.
func BenchmarkTable2B(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	strides := []int{1, 7, 31}
	samples := []int{1, 16, 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table2(cfg, profiler.FlavourJ9, "small", strides, samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the per-benchmark base-vs-CBS breakdown.
func BenchmarkTable3(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	params := experiment.DefaultTable3Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table3(cfg, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Jikes regenerates the left graph of Figure 5.
func BenchmarkFigure5Jikes(b *testing.B) {
	cfg := quickCfg(b, "jess", "mtrt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(cfg, experiment.Figure5Jikes, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5J9 regenerates the right graph of Figure 5.
func BenchmarkFigure5J9(b *testing.B) {
	cfg := quickCfg(b, "jess", "mtrt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(cfg, experiment.Figure5J9, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergence regenerates the E8 accuracy-over-time study.
func BenchmarkConvergence(b *testing.B) {
	cfg := quickCfg(b, "javac")
	bb := bench.ByName("javac")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Convergence(cfg, bb, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkewAblation regenerates the E9 initial-skip study.
func BenchmarkSkewAblation(b *testing.B) {
	cfg := quickCfg(b, "jess", "mpegaudio")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SkewAblation(cfg, "small", 31, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparators regenerates the E10 §3-techniques study.
func BenchmarkComparators(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Comparators(cfg, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlinerAblation regenerates the E11 old-vs-new inliner study.
func BenchmarkInlinerAblation(b *testing.B) {
	cfg := quickCfg(b, "jess", "mtrt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.InlinerAblation(cfg, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSensitive regenerates the E12 CCT study.
func BenchmarkContextSensitive(b *testing.B) {
	cfg := quickCfg(b, "jess", "kawa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ContextStudy(cfg, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the substrate itself ---

// BenchmarkInterpreter measures raw interpretation throughput in real
// time per executed instruction.
func BenchmarkInterpreter(b *testing.B) {
	prog, err := bench.ByName("jess").Compile()
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog)
	setup := prog.MethodByName("$Globals.setup")
	iter := prog.MethodByName("$Globals.iter")
	if _, err := m.Call(setup, vm.IntV(128)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		before := m.Instrs
		if _, err := m.Call(iter); err != nil {
			b.Fatal(err)
		}
		instrs += m.Instrs - before
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkCBSOverheadOnVM measures the Go-level (not modeled) cost the
// CBS profiler adds to interpretation.
func BenchmarkCBSOverheadOnVM(b *testing.B) {
	for _, withProfiler := range []bool{false, true} {
		name := "bare"
		if withProfiler {
			name = "cbs"
		}
		b.Run(name, func(b *testing.B) {
			prog, err := bench.ByName("jess").Compile()
			if err != nil {
				b.Fatal(err)
			}
			m := vm.New(prog)
			if withProfiler {
				m.SetProfiler(profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 1}))
				m.SetTimer(1_000_000)
			}
			setup := prog.MethodByName("$Globals.setup")
			iter := prog.MethodByName("$Globals.iter")
			if _, err := m.Call(setup, vm.IntV(128)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Call(iter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMJCompile measures front-end throughput on the largest
// suite program.
func BenchmarkMJCompile(b *testing.B) {
	src := bench.ByName("javac").Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mj.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlineOptimize measures the optimizer on a full program.
func BenchmarkInlineOptimize(b *testing.B) {
	bb := bench.ByName("javac")
	cfg := quickCfg(b, "javac")
	g, err := experiment.PerfectDCG(cfg, bb, bb.Small/4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := bb.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inline.Optimize(prog, inline.NewNewLinear(), g, inline.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanupAblation regenerates the E13 peephole study.
func BenchmarkCleanupAblation(b *testing.B) {
	cfg := quickCfg(b, "jess", "mtrt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CleanupAblation(cfg, "small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineAdaptive regenerates the E14 online-system study.
func BenchmarkOnlineAdaptive(b *testing.B) {
	cfg := quickCfg(b, "jess", "mtrt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Online(cfg, "small"); err != nil {
			b.Fatal(err)
		}
	}
}
