package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/mj"
	"gocbs/internal/opt"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenProg is one program of the modeled-trajectory golden.
type goldenProg struct {
	name string
	src  string
	arg  int64
	// timer is the CBS timer period: the generated programs run for
	// tens of thousands of cycles, too few for the suite's period to
	// fire, so they get a short one.
	timer uint64
}

// goldenPrograms are the 15 suite programs at 1/8 of their small input
// and two generated workloads, a megamorphic and a closure-heavy one.
func goldenPrograms() []goldenProg {
	var ps []goldenProg
	for _, b := range All() {
		ps = append(ps, goldenProg{b.Name, b.Source, max(1, b.Small/8), 375_000})
	}
	for _, s := range []struct {
		seed  int64
		shape string
	}{{8001, mj.ShapeMegamorphic}, {8004, mj.ShapeClosureHeavy}} {
		ps = append(ps, goldenProg{
			name:  fmt.Sprintf("gen-%d-%s", s.seed, s.shape),
			src:   mj.GenerateWorkload(s.seed, 4, s.shape),
			arg:   50 + s.seed%50,
			timer: 2_000,
		})
	}
	return ps
}

// goldenSources are the profile sources each program runs under. fused
// is a bare run of the superinstruction-fused program, so the fused
// opcodes' cycle charges are pinned too.
var goldenSources = []string{"bare", "cbs", "exhaustive", "mincover", "fused"}

// goldenRun runs p's main under src on a fresh VM and renders every
// modeled quantity of the run as one line.
func goldenRun(t *testing.T, p goldenProg, src string, cbsSeed int64) string {
	t.Helper()
	prog, err := mj.Compile(p.src)
	if err != nil {
		t.Fatalf("compile %s: %v", p.name, err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatalf("prepare %s: %v", p.name, err)
	}
	m := vm.New(prog)
	m.MaxSteps = 1 << 36
	var (
		graph *profile.DCG
		cbs   *profiler.CBS
		mc    *mincover.Profiler
	)
	switch src {
	case "cbs":
		cbs = profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: cbsSeed})
		m.SetProfiler(cbs)
		m.SetTimer(p.timer)
		graph = cbs.Graph
	case "exhaustive":
		e := profiler.NewInstrumented()
		m.SetProfiler(e)
		graph = e.Graph
	case "mincover":
		mc = mincover.New(prog)
		m.SetProfiler(mc)
		graph = mc.Graph
	case "fused":
		if _, err := opt.FuseProgram(prog); err != nil {
			t.Fatalf("fuse %s: %v", p.name, err)
		}
	}
	ret, err := m.Run(p.arg)
	if err != nil {
		t.Fatalf("%s under %s: %v", p.name, src, err)
	}
	if mc != nil {
		if err := mc.Finalize(); err != nil {
			t.Fatalf("%s: mincover finalize: %v", p.name, err)
		}
	}
	out := sha256.New()
	for _, v := range m.Output {
		_ = binary.Write(out, binary.LittleEndian, v)
	}
	dcg := "-"
	if graph != nil {
		var b bytes.Buffer
		if _, err := graph.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		dcg = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	}
	var samples uint64
	if cbs != nil {
		samples = cbs.SamplesTaken
	}
	return fmt.Sprintf("%s %s ret=%d instrs=%d calls=%d cycles=%d profiling=%d samples=%d output=%d:%x dcg=%s",
		p.name, src, ret.I, m.Instrs, m.Calls, m.Cycles, m.ProfilingCycles, samples,
		len(m.Output), out.Sum(nil), dcg)
}

// TestInterpreterModeledTrajectory pins every modeled count of the
// suite and two generated workloads under every profile source:
// instructions, calls, total and profiling cycles, CBS samples, the
// printed output and the canonical DCG bytes. Any change to how the
// interpreter charges, polls the timer or takes yieldpoints moves at
// least one of them. Regenerate with -update only for a change that
// means to alter the modeled behaviour.
func TestInterpreterModeledTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite program five times")
	}
	var b strings.Builder
	for i, p := range goldenPrograms() {
		for _, src := range goldenSources {
			b.WriteString(goldenRun(t, p, src, int64(1+i)))
			b.WriteByte('\n')
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "interp_trajectory.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("trajectory moved:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
