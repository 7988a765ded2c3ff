package vm

import (
	"fmt"

	"gocbs/internal/bytecode"
)

// Run executes the program's entry method with the given integer
// arguments and returns its result.
func (vm *VM) Run(args ...int64) (Value, error) {
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = IntV(a)
	}
	return vm.Call(vm.Prog.Entry, vals...)
}

// Call invokes a static method re-entrantly: the harness uses it to
// run setup once and then time individual benchmark iterations. The
// frame it pushes has no call site (Site == -1), so profilers never
// attribute a DCG edge to harness invocations.
func (vm *VM) Call(m *bytecode.Method, args ...Value) (Value, error) {
	if !m.Static {
		return Value{}, fmt.Errorf("Call requires a static method, got %s", m.Name)
	}
	if len(args) != m.NArgs {
		return Value{}, fmt.Errorf("%s takes %d args, got %d", m.Name, m.NArgs, len(args))
	}
	baseDepth := len(vm.frames)
	vm.chargeWork(vm.Cost.CallOverhead)
	f := vm.pushFrame(m, -1, -1)
	copy(f.Locals, args)
	vm.noteEntry(m)
	return vm.run(baseDepth)
}

// pushFrame appends an activation record, reusing the slot's previous
// locals allocation when possible. Non-argument locals are zeroed by
// the caller after arguments are copied in.
func (vm *VM) pushFrame(m *bytecode.Method, site, callerPC int) *Frame {
	n := len(vm.frames)
	if n < cap(vm.frames) {
		vm.frames = vm.frames[:n+1]
	} else {
		vm.frames = append(vm.frames, Frame{})
	}
	f := &vm.frames[n]
	f.M = m
	f.PC = 0
	f.Site = site
	f.CallerPC = callerPC
	f.base = len(vm.stack)
	if cap(f.Locals) >= m.NLocals {
		f.Locals = f.Locals[:m.NLocals]
		for i := range f.Locals {
			f.Locals[i] = Value{}
		}
	} else {
		f.Locals = make([]Value, m.NLocals)
	}
	return f
}

// noteEntry performs the per-entry bookkeeping shared by harness calls
// and interpreted calls: executed-method tracking, the optional
// explicit entry check cost, the entry listener, and the prologue
// yieldpoint.
func (vm *VM) noteEntry(m *bytecode.Method) {
	if !vm.executed[m.ID] {
		vm.executed[m.ID] = true
		vm.nExec++
	}
	if vm.EntryCheckCost > 0 {
		vm.ChargeProfiling(vm.EntryCheckCost)
	}
	if vm.entryH != nil {
		vm.entryH.OnEntry(vm, m)
	}
	if vm.ControlWord != 0 {
		vm.takeYieldpoint(YieldPrologue)
	}
}

// invoke transfers control into callee from the call instruction at
// f.PC. The caller's pc and the operand stack must be spilled: the
// arguments are taken off vm.stack and the hooks may walk the frames.
func (vm *VM) invoke(f *Frame, site int, callee *bytecode.Method) {
	vm.Calls++
	vm.chargeWork(vm.Cost.CallOverhead)
	if vm.callH != nil {
		vm.callH.OnCall(vm, f.M, site, callee)
	}
	nargs := callee.NArgs
	argBase := len(vm.stack) - nargs
	nf := vm.pushFrame(callee, site, f.PC)
	copy(nf.Locals, vm.stack[argBase:])
	vm.stack = vm.stack[:argBase]
	nf.base = argBase
	vm.noteEntry(callee)
}

// run interprets until the frame stack shrinks back to baseDepth, then
// unwinds to baseDepth and the entry frame's stack base on every exit:
// return, halt, trap and step limit alike.
//
// The top frame f, its code, pc, the operand stack st and the
// instruction and cycle counters live in locals. pc, st and the
// counters are written back to f.PC, vm.stack, vm.Instrs and vm.Cycles
// only where other code can observe them: before invoke, a taken
// yieldpoint, a timer poll and Trace. The cycle count and timer
// deadline are reloaded after each of those, since hooks may charge
// cycles or reset the timer; f, code, pc and st are reloaded where a
// call or return changes the top frame.
func (vm *VM) run(baseDepth int) (Value, error) {
	entryBase := vm.frames[baseDepth].base
	limit := vm.MaxSteps
	if limit == 0 {
		limit = ^uint64(0)
	}
	trace := vm.Trace
	cost := &vm.Cost.Instr

	f := &vm.frames[len(vm.frames)-1]
	code, pc, st := f.M.Code, f.PC, vm.stack
	instrs, cycles, deadline := vm.Instrs, vm.Cycles, vm.nextTimer
	var (
		rv  Value
		err error
	)
loop:
	for {
		if uint(pc) >= uint(len(code)) {
			err = trapAt(f.M, pc, "pc out of range")
			break
		}
		ins := code[pc]
		instrs++
		if instrs > limit {
			err = trapAt(f.M, pc, "step limit %d exceeded", limit)
			break
		}
		if trace != nil {
			f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
			trace(f.M, pc, ins)
			cycles, deadline = vm.Cycles, vm.nextTimer
		}
		cycles += cost[ins.Op]
		if cycles >= deadline {
			f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
			vm.pollTimer()
			cycles, deadline = vm.Cycles, vm.nextTimer
		}

		switch ins.Op {
		case bytecode.OpNop:

		case bytecode.OpConst:
			st = append(st, IntV(int64(ins.A)))
		case bytecode.OpConstL:
			st = append(st, IntV(f.M.Consts[ins.A]))
		case bytecode.OpLoad:
			st = append(st, f.Locals[ins.A])
		case bytecode.OpStore:
			n := len(st) - 1
			f.Locals[ins.A] = st[n]
			st = st[:n]
		case bytecode.OpPop:
			st = st[:len(st)-1]
		case bytecode.OpDup:
			st = append(st, st[len(st)-1])

		// Binary operators combine the top two operands in place of
		// the lower one: a is st[n-1], b is st[n].
		case bytecode.OpAdd:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I + st[n].I)
			st = st[:n]
		case bytecode.OpSub:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I - st[n].I)
			st = st[:n]
		case bytecode.OpMul:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I * st[n].I)
			st = st[:n]
		case bytecode.OpDiv:
			n := len(st) - 1
			a, b := st[n-1].I, st[n].I
			if b == 0 {
				err = trapAt(f.M, pc, "division by zero")
				break loop
			}
			// MinInt64 / -1 wraps (Java idiv semantics); Go would panic.
			if b == -1 {
				st[n-1] = IntV(-a)
			} else {
				st[n-1] = IntV(a / b)
			}
			st = st[:n]
		case bytecode.OpRem:
			n := len(st) - 1
			a, b := st[n-1].I, st[n].I
			if b == 0 {
				err = trapAt(f.M, pc, "remainder by zero")
				break loop
			}
			if b == -1 { // MinInt64 % -1 is 0, not a panic
				st[n-1] = IntV(0)
			} else {
				st[n-1] = IntV(a % b)
			}
			st = st[:n]
		case bytecode.OpNeg:
			n := len(st) - 1
			st[n] = IntV(-st[n].I)

		case bytecode.OpAnd:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I & st[n].I)
			st = st[:n]
		case bytecode.OpOr:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I | st[n].I)
			st = st[:n]
		case bytecode.OpXor:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I ^ st[n].I)
			st = st[:n]
		case bytecode.OpShl:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I << (uint64(st[n].I) & 63))
			st = st[:n]
		case bytecode.OpShr:
			n := len(st) - 1
			st[n-1] = IntV(st[n-1].I >> (uint64(st[n].I) & 63))
			st = st[:n]

		case bytecode.OpEq:
			n := len(st) - 1
			a, b := st[n-1], st[n]
			st[n-1] = boolV(a.I == b.I && a.R == b.R)
			st = st[:n]
		case bytecode.OpNe:
			n := len(st) - 1
			a, b := st[n-1], st[n]
			st[n-1] = boolV(a.I != b.I || a.R != b.R)
			st = st[:n]
		case bytecode.OpLt:
			n := len(st) - 1
			st[n-1] = boolV(st[n-1].I < st[n].I)
			st = st[:n]
		case bytecode.OpLe:
			n := len(st) - 1
			st[n-1] = boolV(st[n-1].I <= st[n].I)
			st = st[:n]
		case bytecode.OpGt:
			n := len(st) - 1
			st[n-1] = boolV(st[n-1].I > st[n].I)
			st = st[:n]
		case bytecode.OpGe:
			n := len(st) - 1
			st[n-1] = boolV(st[n-1].I >= st[n].I)
			st = st[:n]
		case bytecode.OpNot:
			n := len(st) - 1
			st[n] = boolV(st[n].I == 0 && st[n].R == nil)

		case bytecode.OpJump:
			target := int(ins.A)
			if target <= pc && vm.ControlWord > ControlNone {
				f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
				vm.takeYieldpoint(YieldBackedge)
				cycles, deadline = vm.Cycles, vm.nextTimer
			}
			pc = target
			continue
		case bytecode.OpJumpZ, bytecode.OpJumpNZ:
			n := len(st) - 1
			v := st[n]
			st = st[:n]
			zero := v.I == 0 && v.R == nil
			if zero == (ins.Op == bytecode.OpJumpZ) {
				target := int(ins.A)
				if target <= pc && vm.ControlWord > ControlNone {
					f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
					vm.takeYieldpoint(YieldBackedge)
					cycles, deadline = vm.Cycles, vm.nextTimer
				}
				pc = target
				continue
			}

		case bytecode.OpGetField:
			n := len(st) - 1
			o := st[n].R
			if o == nil {
				err = trapAt(f.M, pc, "getfield on nil")
				break loop
			}
			st[n] = o.Fields[ins.A]
		case bytecode.OpPutField:
			n := len(st) - 2
			o, v := st[n].R, st[n+1]
			if o == nil {
				err = trapAt(f.M, pc, "putfield on nil")
				break loop
			}
			o.Fields[ins.A] = v
			st = st[:n]
		case bytecode.OpNew:
			cls := vm.Prog.Classes[ins.A]
			cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(len(cls.Fields))
			st = append(st, RefV(&Object{Class: cls, Fields: make([]Value, len(cls.Fields))}))

		case bytecode.OpGetStatic:
			st = append(st, vm.statics[ins.A])
		case bytecode.OpPutStatic:
			n := len(st) - 1
			vm.statics[ins.A] = st[n]
			st = st[:n]

		case bytecode.OpNewArr:
			n := len(st) - 1
			size := st[n].I
			if size < 0 {
				err = trapAt(f.M, pc, "newarr with negative length %d", size)
				break loop
			}
			cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(size)
			st[n] = RefV(&Object{Elems: make([]Value, size)})
		case bytecode.OpALoad:
			n := len(st) - 2
			arr, idx := st[n].R, st[n+1].I
			if arr == nil {
				err = trapAt(f.M, pc, "aload on nil")
				break loop
			}
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				err = trapAt(f.M, pc, "array index %d out of range [0,%d)", idx, len(arr.Elems))
				break loop
			}
			st[n] = arr.Elems[idx]
			st = st[:n+1]
		case bytecode.OpAStore:
			n := len(st) - 3
			arr, idx, v := st[n].R, st[n+1].I, st[n+2]
			if arr == nil {
				err = trapAt(f.M, pc, "astore on nil")
				break loop
			}
			if idx < 0 || idx >= int64(len(arr.Elems)) {
				err = trapAt(f.M, pc, "array index %d out of range [0,%d)", idx, len(arr.Elems))
				break loop
			}
			arr.Elems[idx] = v
			st = st[:n]
		case bytecode.OpArrLen:
			n := len(st) - 1
			arr := st[n].R
			if arr == nil {
				err = trapAt(f.M, pc, "arrlen on nil")
				break loop
			}
			st[n] = IntV(int64(len(arr.Elems)))

		case bytecode.OpCallStatic:
			f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
			vm.invoke(f, int(ins.B), vm.Prog.Methods[ins.A])
			f = &vm.frames[len(vm.frames)-1]
			code, pc, st = f.M.Code, f.PC, vm.stack
			cycles, deadline = vm.Cycles, vm.nextTimer
			continue
		case bytecode.OpCallVirtual:
			slot, nargs := bytecode.DecodeVirtual(ins.A)
			recv := st[len(st)-nargs].R
			if recv == nil {
				err = trapAt(f.M, pc, "virtual call on nil receiver")
				break loop
			}
			if recv.Class == nil || slot >= len(recv.Class.VTable) {
				err = trapAt(f.M, pc, "bad virtual dispatch (slot %d)", slot)
				break loop
			}
			callee := recv.Class.VTable[slot]
			if callee == nil {
				err = trapAt(f.M, pc, "vtable slot %d empty on %s", slot, recv.Class.Name)
				break loop
			}
			cycles += vm.Cost.VirtualDispatch
			f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
			vm.invoke(f, int(ins.B), callee)
			f = &vm.frames[len(vm.frames)-1]
			code, pc, st = f.M.Code, f.PC, vm.stack
			cycles, deadline = vm.Cycles, vm.nextTimer
			continue

		case bytecode.OpMakeClosure:
			target := vm.Prog.Methods[ins.A]
			ncaps := int(ins.B)
			cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(ncaps)
			n := len(st) - ncaps
			caps := make([]Value, ncaps)
			copy(caps, st[n:])
			st = append(st[:n], RefV(&Object{Fn: target, Fields: caps}))
		case bytecode.OpCallClosure:
			nargs := int(ins.A)
			fn := st[len(st)-nargs].R
			if fn == nil {
				err = trapAt(f.M, pc, "closure call on nil")
				break loop
			}
			if fn.Fn == nil {
				err = trapAt(f.M, pc, "closure call on non-closure %s", castClassName(fn))
				break loop
			}
			callee := fn.Fn
			if callee.NArgs != nargs {
				err = trapAt(f.M, pc, "closure %s takes %d args, call site passes %d", callee.Name, callee.NArgs, nargs)
				break loop
			}
			cycles += vm.Cost.VirtualDispatch
			f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
			vm.invoke(f, int(ins.B), callee)
			f = &vm.frames[len(vm.frames)-1]
			code, pc, st = f.M.Code, f.PC, vm.stack
			cycles, deadline = vm.Cycles, vm.nextTimer
			continue

		case bytecode.OpReturn, bytecode.OpReturnVoid:
			var ret Value
			if ins.Op == bytecode.OpReturn {
				n := len(st) - 1
				ret = st[n]
				st = st[:n]
			}
			if vm.ControlWord != ControlNone && vm.EpilogueYieldpoints {
				f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
				vm.takeYieldpoint(YieldEpilogue)
				cycles, deadline = vm.Cycles, vm.nextTimer
			}
			st = st[:f.base]
			vm.frames = vm.frames[:len(vm.frames)-1]
			if len(vm.frames) == baseDepth {
				rv = ret
				break loop
			}
			f = &vm.frames[len(vm.frames)-1]
			code, pc = f.M.Code, f.PC+1
			st = append(st, ret)
			continue

		case bytecode.OpClassEq:
			n := len(st) - 1
			o := st[n].R
			st[n] = boolV(o != nil && o.Class != nil && o.Class.ID == int(ins.A))
		case bytecode.OpVTEq:
			n := len(st) - 1
			o := st[n].R
			slot, mid := bytecode.DecodeVTEq(ins.A)
			st[n] = boolV(o != nil && o.Class != nil && slot < len(o.Class.VTable) &&
				o.Class.VTable[slot] == vm.Prog.Methods[mid])
		case bytecode.OpInstanceOf:
			n := len(st) - 1
			o := st[n].R
			st[n] = boolV(o != nil && o.Class != nil && o.Class.SubclassOf(vm.Prog.Classes[ins.A]))
		case bytecode.OpCast:
			o := st[len(st)-1].R
			if o != nil && (o.Class == nil || !o.Class.SubclassOf(vm.Prog.Classes[ins.A])) {
				err = trapAt(f.M, pc, "cannot cast %s to %s", castClassName(o), vm.Prog.Classes[ins.A].Name)
				break loop
			}
		case bytecode.OpIsNull:
			n := len(st) - 1
			st[n] = boolV(st[n].R == nil && st[n].I == 0)
		case bytecode.OpNull:
			st = append(st, Value{})

		// Superinstructions (emitted by opt.Fuse): each case is the
		// literal composition of its unfused parts, executed under the
		// single summed cycle charge taken above.
		case bytecode.OpLoadLoad:
			st = append(st, f.Locals[ins.A], f.Locals[ins.B])
		case bytecode.OpLoadConst:
			st = append(st, f.Locals[ins.A], IntV(int64(ins.B)))
		case bytecode.OpAddConst:
			n := len(st) - 1
			st[n] = IntV(st[n].I + int64(ins.A))
		case bytecode.OpIncLocal:
			// Like Load;Const;Add;Store, the result is a pure integer:
			// any reference interpretation of the local is dropped.
			f.Locals[ins.A] = IntV(f.Locals[ins.A].I + int64(ins.B))
		case bytecode.OpJumpCmp:
			n := len(st) - 2
			a, b := st[n], st[n+1]
			st = st[:n]
			var take bool
			switch bytecode.Opcode(ins.B) {
			case bytecode.OpEq:
				take = a.I == b.I && a.R == b.R
			case bytecode.OpNe:
				take = a.I != b.I || a.R != b.R
			case bytecode.OpLt:
				take = a.I < b.I
			case bytecode.OpLe:
				take = a.I <= b.I
			case bytecode.OpGt:
				take = a.I > b.I
			case bytecode.OpGe:
				take = a.I >= b.I
			default:
				err = trapAt(f.M, pc, "jumpcmp with bad comparison %d", ins.B)
				break loop
			}
			if take {
				target := int(ins.A)
				if target <= pc && vm.ControlWord > ControlNone {
					f.PC, vm.stack, vm.Instrs, vm.Cycles = pc, st, instrs, cycles
					vm.takeYieldpoint(YieldBackedge)
					cycles, deadline = vm.Cycles, vm.nextTimer
				}
				pc = target
				continue
			}

		case bytecode.OpPrint:
			n := len(st) - 1
			vm.Output = append(vm.Output, st[n].I)
			st = st[:n]
		case bytecode.OpHalt:
			break loop

		default:
			err = trapAt(f.M, pc, "unimplemented opcode %v", ins.Op)
			break loop
		}
		pc++
	}
	vm.Instrs, vm.Cycles = instrs, cycles
	vm.frames = vm.frames[:baseDepth]
	vm.stack = st[:entryBase]
	return rv, err
}

func castClassName(o *Object) string {
	if o.Fn != nil {
		return "closure " + o.Fn.Name
	}
	if o.Class == nil {
		return "array"
	}
	return o.Class.Name
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}
