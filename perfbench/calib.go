package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// The host this benchmark runs on shares its CPUs and memory system
// with other tenants, and its speed drifts with their load: serial
// passes over the suite ran at 111–182 Mcyc/s in five processes
// minutes apart. Every wall-clock metric is therefore reported at a
// reference host speed: next to the operations it times, a run also
// times a fixed calibration loop that shares no code with gocbs, and
// scales each duration by calibRef / (calibration time). On a host
// where the calibration takes calibRef, reported and measured times
// agree. The loop is a small bytecode interpreter because code like
// the VM's drifts unlike other code: a loop of random reads over 4 MB
// still left suite-run's rate spread 0.15 over ten seeds, while this
// loop held seven suite-run processes within ±3 %.
const calibRef = time.Millisecond

// calibrator times the calibration loop. Each goroutine that
// calibrates has its own.
type calibrator struct {
	sink int64 // keeps the loop from being optimized away
}

func newCalibrator() *calibrator { return &calibrator{} }

// speed runs a fixed program on a small stack interpreter that shares
// no code with gocbs — dispatch over a switch, a stack of two-word
// values, call frames and small allocations, as in a bytecode VM — and
// returns the host's speed relative to the reference: calibRef divided
// by how long it took.
func (c *calibrator) speed() float64 {
	type val struct {
		i int64
		r *[4]int64
	}
	type frame struct{ pc, base int }
	const (
		opPush = iota
		opAdd
		opMul
		opXor
		opDup
		opLoad
		opStore
		opJnz
		opCall
		opRet
		opNew
		opDec
		opHalt
	)
	type ins struct{ op, a int }
	prog := []ins{
		// main: counter in local 0
		{opPush, 8000}, {opStore, 0},
		{opLoad, 0}, {opCall, 10}, {opLoad, 0}, {opDec, 0}, {opDup, 0}, {opStore, 0}, {opJnz, 2}, {opHalt, 0},
		// 10: f(x) = ((x*3) ^ 7) + new object
		{opPush, 3}, {opMul, 0}, {opPush, 7}, {opXor, 0}, {opNew, 0}, {opAdd, 0}, {opRet, 0},
	}
	t0 := time.Now()
	stack := make([]val, 0, 64)
	locals := make([]val, 4)
	frames := make([]frame, 0, 8)
	var acc int64
	pc := 0
	for steps := 0; steps < 200_000 && pc < len(prog); steps++ {
		in := prog[pc]
		pc++
		switch in.op {
		case opPush:
			stack = append(stack, val{i: int64(in.a)})
		case opAdd, opMul, opXor:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			switch in.op {
			case opAdd:
				a.i += b.i
			case opMul:
				a.i *= b.i
			default:
				a.i ^= b.i
			}
			stack = append(stack, a)
		case opDup:
			stack = append(stack, stack[len(stack)-1])
		case opLoad:
			stack = append(stack, locals[in.a])
		case opStore:
			locals[in.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case opDec:
			stack[len(stack)-1].i--
		case opJnz:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.i != 0 {
				pc = in.a
			}
		case opCall:
			frames = append(frames, frame{pc: pc, base: len(stack)})
			pc = in.a
		case opRet:
			f := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			acc += stack[len(stack)-1].i
			stack = stack[:f.base-1]
			pc = f.pc
		case opNew:
			o := &[4]int64{acc}
			stack = append(stack, val{i: o[0] & 1, r: o})
		case opHalt:
			pc = len(prog)
		}
	}
	c.sink += acc
	return calibRef.Seconds() / time.Since(t0).Seconds()
}

// retainedHeapMB runs two full garbage collections (the second empties
// what sync.Pools kept through the first) and returns the live Go heap
// in MB: the memory the workload retains once its measured phase is
// over.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}
