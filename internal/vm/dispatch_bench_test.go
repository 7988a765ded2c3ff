package vm

import (
	"testing"

	"gocbs/internal/bytecode"
)

// dispatchLoopIters is how many loop iterations one benchmark op runs.
const dispatchLoopIters = 1000

// dispatchClasses builds one loop program per instruction class. Each
// entry method takes the iteration count, runs a counted loop whose
// body is dominated by that class, and returns 0.
var dispatchClasses = []struct {
	name  string
	build func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder
}{
	{"alu", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		return countedLoop(pb, nil, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, int32(a))
			f.Const(3)
			f.Emit(bytecode.OpMul)
			f.Const(7)
			f.Emit(bytecode.OpAdd)
			f.Const(5)
			f.Emit(bytecode.OpXor)
			f.Emit(bytecode.OpStore, int32(a))
		})
	}},
	{"local", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		return countedLoop(pb, nil, func(f *bytecode.MethodBuilder, a int) {
			b := f.AllocLocal()
			f.Emit(bytecode.OpLoad, int32(a))
			f.Emit(bytecode.OpStore, int32(b))
			f.Emit(bytecode.OpLoad, int32(b))
			f.Emit(bytecode.OpStore, int32(a))
		})
	}},
	{"branch", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		return countedLoop(pb, nil, func(f *bytecode.MethodBuilder, a int) {
			skip := f.NewLabel()
			f.Emit(bytecode.OpLoad, 0)
			f.Const(1)
			f.Emit(bytecode.OpAnd)
			f.Branch(bytecode.OpJumpZ, skip)
			f.Emit(bytecode.OpNop)
			f.Bind(skip)
		})
	}},
	{"field", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		c := pb.NewClass("Box", nil)
		fld := c.AddField("v", false)
		return countedLoop(pb, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpNew, int32(c.ID()))
			f.Emit(bytecode.OpStore, int32(a))
		}, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, int32(a))
			f.Emit(bytecode.OpLoad, int32(a))
			f.Emit(bytecode.OpGetField, int32(fld))
			f.Const(1)
			f.Emit(bytecode.OpAdd)
			f.Emit(bytecode.OpPutField, int32(fld))
		})
	}},
	{"array", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		return countedLoop(pb, func(f *bytecode.MethodBuilder, a int) {
			f.Const(8)
			f.Emit(bytecode.OpNewArr)
			f.Emit(bytecode.OpStore, int32(a))
		}, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, int32(a))
			f.Const(3)
			f.Emit(bytecode.OpLoad, int32(a))
			f.Const(3)
			f.Emit(bytecode.OpALoad)
			f.Const(1)
			f.Emit(bytecode.OpAdd)
			f.Emit(bytecode.OpAStore)
		})
	}},
	{"call-static", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		id := pb.NewFunc("id", 1)
		id.Emit(bytecode.OpLoad, 0)
		id.Emit(bytecode.OpReturn)
		return countedLoop(pb, nil, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, 0)
			f.CallStatic(id)
			f.Emit(bytecode.OpPop)
		})
	}},
	{"call-virtual", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		c := pb.NewClass("C", nil)
		v := c.NewMethod("v", false, 1)
		v.Const(1)
		v.Emit(bytecode.OpReturn)
		return countedLoop(pb, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpNew, int32(c.ID()))
			f.Emit(bytecode.OpStore, int32(a))
		}, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, int32(a))
			f.CallVirtual(c, "v")
			f.Emit(bytecode.OpPop)
		})
	}},
	{"call-closure", func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder {
		fn := pb.NewFunc("lambda", 1)
		fn.Const(1)
		fn.Emit(bytecode.OpReturn)
		return countedLoop(pb, func(f *bytecode.MethodBuilder, a int) {
			f.MakeClosure(fn, 0)
			f.Emit(bytecode.OpStore, int32(a))
		}, func(f *bytecode.MethodBuilder, a int) {
			f.Emit(bytecode.OpLoad, int32(a))
			f.CallClosure(1)
			f.Emit(bytecode.OpPop)
		})
	}},
}

// countedLoop emits main(n): init once, then body n times, then return
// 0. Both callbacks get a scratch local; the count lives in local 0.
func countedLoop(pb *bytecode.ProgramBuilder, init, body func(f *bytecode.MethodBuilder, local int)) *bytecode.MethodBuilder {
	f := pb.NewFunc("main", 1)
	a := f.AllocLocal()
	if init != nil {
		init(f, a)
	}
	loop, done := f.NewLabel(), f.NewLabel()
	f.Bind(loop)
	f.Emit(bytecode.OpLoad, 0)
	f.Branch(bytecode.OpJumpZ, done)
	body(f, a)
	f.Emit(bytecode.OpLoad, 0)
	f.Const(1)
	f.Emit(bytecode.OpSub)
	f.Emit(bytecode.OpStore, 0)
	f.Branch(bytecode.OpJump, loop)
	f.Bind(done)
	f.Const(0)
	f.Emit(bytecode.OpReturn)
	return f
}

// BenchmarkDispatch times the interpreter loop on one instruction class
// at a time and reports the real time per executed instruction.
func BenchmarkDispatch(b *testing.B) {
	for _, c := range dispatchClasses {
		b.Run(c.name, func(b *testing.B) {
			pb := bytecode.NewProgramBuilder()
			main := c.build(pb)
			pb.SetEntry(main)
			prog, err := pb.Link()
			if err != nil {
				b.Fatal(err)
			}
			m := New(prog)
			arg := IntV(dispatchLoopIters)
			b.ReportAllocs()
			b.ResetTimer()
			before := m.Instrs
			for i := 0; i < b.N; i++ {
				if _, err := m.Call(prog.Entry, arg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Instrs-before), "ns/instr")
		})
	}
}
