package vm_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/vm"
)

// probe implements every listener interface and hashes, at each hook,
// everything a profiler can read off the VM: the top method, the full
// (method, pc) and (method, site) walks, the top call edge, the depth
// and the clock. Like a sampler, it opens a yieldpoint window on every
// tick, closes it after a few yieldpoints and charges profiling cycles
// at each hook, so its own work perturbs the timer phase.
type probe struct {
	h      hash.Hash
	events int
	window int
}

func newProbe() *probe { return &probe{h: sha256.New()} }

func (p *probe) Name() string { return "probe" }

func (p *probe) record(m *vm.VM, hook string) {
	p.events++
	fmt.Fprintf(p.h, "%s top=%s depth=%d cycles=%d prof=%d walk=", hook, methodName(m.TopMethod()), m.Depth(), m.Cycles, m.ProfilingCycles)
	m.WalkStack(func(mm *bytecode.Method, pc int) bool {
		fmt.Fprintf(p.h, "%s@%d,", mm.Name, pc)
		return true
	})
	p.h.Write([]byte(" callers="))
	m.WalkCallers(func(mm *bytecode.Method, site int) bool {
		fmt.Fprintf(p.h, "%s#%d,", mm.Name, site)
		return true
	})
	caller, site, callee, ok := m.TopCallEdge()
	fmt.Fprintf(p.h, " edge=%s#%d->%s:%v\n", methodName(caller), site, methodName(callee), ok)
	m.ChargeProfiling(7)
}

func methodName(m *bytecode.Method) string {
	if m == nil {
		return "<nil>"
	}
	return m.Name
}

func (p *probe) OnTimerTick(m *vm.VM) {
	p.record(m, "tick")
	p.window = 5
	m.ControlWord = vm.ControlAll
}

func (p *probe) OnYieldpoint(m *vm.VM, kind vm.YieldKind) {
	p.record(m, kind.String())
	if p.window--; p.window == 0 {
		m.ControlWord = vm.ControlNone
	}
}

func (p *probe) OnCall(m *vm.VM, caller *bytecode.Method, site int, callee *bytecode.Method) {
	fmt.Fprintf(p.h, "call %s#%d->%s ", caller.Name, site, callee.Name)
	p.record(m, "call")
}

func (p *probe) OnEntry(m *vm.VM, mm *bytecode.Method) {
	fmt.Fprintf(p.h, "entry %s ", mm.Name)
	p.record(m, "entry")
}

// TestHooksSeeSpilledState pins what every hook and the Trace callback
// observe on two suite programs, one of them closure-heavy: the
// interpreter may keep its frame, pc and operand stack in registers,
// but at each point other code can look it must show exactly the state
// an instruction-at-a-time interpreter would.
func TestHooksSeeSpilledState(t *testing.T) {
	cases := []struct {
		bench          string
		events, traced int
		hooks, trace   string
	}{
		{"jess", 103205, 1120457,
			"867127168ec135c02de8f214422ea255d1b0907be3269631e29d0aed2872de3c",
			"4224689558776d13a4d0b3a8abad31b0dfed85fc70470dfe7881fe6a1162c96a"},
		{"closures", 68867, 1018395,
			"1987972215cde3c168bcaffed586a298113d182a121a161811dfeaa76014d64e",
			"0a8f01189d8853aa3771b3d9421bb72362f17c6c70794336cc56a0a90d7e1a56"},
	}
	for _, tc := range cases {
		b := bench.ByName(tc.bench)
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(prog)
		p := newProbe()
		m.SetProfiler(p)
		m.SetTimer(20_000)
		th := sha256.New()
		traced := 0
		m.Trace = func(mm *bytecode.Method, pc int, ins bytecode.Instr) {
			traced++
			fmt.Fprintf(th, "%s@%d:%v\n", mm.Name, pc, ins.Op)
		}
		if _, err := m.Run(max(1, b.Small/8)); err != nil {
			t.Fatalf("%s: %v", tc.bench, err)
		}
		hooks, trace := fmt.Sprintf("%x", p.h.Sum(nil)), fmt.Sprintf("%x", th.Sum(nil))
		if p.events != tc.events || hooks != tc.hooks || traced != tc.traced || trace != tc.trace {
			t.Errorf("%s: hooks saw %d events (hash %s), trace %d instructions (hash %s); want %d (%s), %d (%s)",
				tc.bench, p.events, hooks, traced, trace, tc.events, tc.hooks, tc.traced, tc.trace)
		}
	}
}

// TestTrapAfterReturnNamesCallerPC checks the pc a trap reports after a
// callee returned: the caller's own instruction, not its call site.
func TestTrapAfterReturnNamesCallerPC(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	callee := pb.NewFunc("callee", 0)
	callee.Const(7)
	callee.Emit(bytecode.OpReturn)
	main := pb.NewFunc("main", 0)
	main.CallStatic(callee)
	main.Const(0)
	main.Emit(bytecode.OpDiv)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.New(prog).Run()
	if err == nil || !strings.Contains(err.Error(), "trap at $Globals.main@2:") {
		t.Fatalf("trap = %v, want it at $Globals.main@2", err)
	}
}
