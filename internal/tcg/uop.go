// Micro-op lowering and execution for hot-trace superblocks (tier 3 of the
// translation pipeline, see trace.go). A superblock's guest instructions are
// pre-decoded into a flat uop array: loads and stores carry a pre-resolved
// width and sign-extension shift, long-immediate moves carry the
// materialized constant, compare+branch pairs and ADDI chains are fused, and
// virtual-time costs are aggregated per straight-line segment so the hot
// path charges the cost model once per segment instead of once per
// instruction. Every uop keeps the guest PC of the instruction it came from,
// so faults, syscalls and contended atomics exit the superblock with
// architecturally exact state and internal/core's restart-at-faulting-
// instruction contract holds unchanged.
package tcg

import (
	"encoding/binary"
	"fmt"
	"math"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

type uopKind uint8

const (
	uNop uopKind = iota

	// Integer register-register.
	uAdd
	uSub
	uMul
	uDiv
	uDivU
	uRem
	uRemU
	uAnd
	uOr
	uXor
	uSll
	uSrl
	uSra
	uSlt
	uSltu

	// Integer register-immediate.
	uAddi
	uAndi
	uOri
	uXori
	uSlli
	uSrli
	uSrai
	uSlti

	uLi // rd = val (materialized MOVIW/MOVID constant)

	// Memory, with pre-resolved width (size) and sign shift (sh).
	uLoad
	uStore
	uFLoad
	uFStore

	// DQSan instrumentation, emitted immediately before the memory uop they
	// shadow (the address registers are still live there — the load itself
	// may clobber its own base). Zero cost, zero retired instructions: the
	// *virtual* machine is unaffected by sanitizing, only host time is.
	uSanRead
	uSanWrite

	// Control flow. Guards keep execution on the trace: a guard evaluates
	// its branch and side-exits when the outcome differs from the direction
	// the trace followed. Exit uops end the trace unconditionally.
	uGuard
	uFusedCmpGuard // slt/sltu fused with a beqz/bnez guard
	uBranchExit
	uFusedCmpExit
	uLink     // JAL followed in-trace: just the link write
	uJalExit  // JAL ending the trace
	uJalrExit // indirect branch: target resolved via the jump cache
	uLoopBack // back-edge to uop 0 (trace loops onto its own head)
	uExit     // straight-line trace end

	// Atomics and fences. Atomics end a cost segment because they can fault
	// or (under StopAtomic) end the quantum mid-trace.
	uLL
	uSC
	uCAS
	uAmoAdd
	uAmoSwap
	uFence

	// System.
	uSvcExit
	uHint
	uHaltExit
	uEbreakExit

	// Floating point.
	uFAdd
	uFSub
	uFMul
	uFDiv
	uFMin
	uFMax
	uFSqrt
	uFNeg
	uFAbs
	uFExp
	uFLn
	uFMovImm
	uFMv
	uFMvXD
	uFMvDX
	uFCvtDL
	uFCvtLD
	uFEq
	uFLt
	uFLe
)

// uop is one pre-decoded micro-operation of a superblock.
type uop struct {
	imm int64
	val uint64 // materialized constant / link value / FP literal bits
	pc  uint64 // guest PC of the originating instruction
	npc uint64 // taken / off-trace / continuation target

	npc2 uint64 // fall-through target for branch exits

	cost     int32  // aggregate virtual cost of the segment starting here
	selfCost int32  // this uop's own virtual cost (segment accounting)
	insns    uint16 // segment guest-insn count; nonzero marks a segment start
	exit     int16  // exit-slot index for npc (-1 = none / dynamic)
	exit2    int16  // exit-slot index for npc2

	kind        uopKind
	rd          uint8
	rs1         uint8
	rs2         uint8
	size        uint8  // load/store width in bytes
	sh          uint8  // load sign-extension shift (64 - 8*size); 0 = none
	bop         isa.Op // branch op for guards/branch exits
	selfInsns   uint8  // guest instructions this uop retires (2+ when fused)
	cmpU        bool   // fused compare is unsigned (sltu)
	expectTaken bool   // guard: branch direction the trace follows
}

// lowerInsn appends the uop(s) for one guest instruction to ops. Pure
// straight-line instructions only; block terminators are lowered by
// buildTrace, which knows whether the trace follows or exits them.
func (e *Engine) lowerInsn(ops []uop, ins *isa.Instruction, pc uint64) []uop {
	u := uop{pc: pc, selfInsns: 1, selfCost: int32(e.opCost[ins.Op]), exit: -1, exit2: -1,
		rd: ins.Rd, rs1: ins.Rs1, rs2: ins.Rs2, imm: ins.Imm}

	// Integer ALU results into x0 have no architectural effect; keep the
	// cost charge but drop the work.
	alu := func(k uopKind) uop {
		if ins.Rd == 0 {
			u.kind = uNop
			return u
		}
		u.kind = k
		return u
	}

	switch ins.Op {
	case isa.OpADD:
		u = alu(uAdd)
	case isa.OpSUB:
		u = alu(uSub)
	case isa.OpMUL:
		u = alu(uMul)
	case isa.OpDIV:
		u = alu(uDiv)
	case isa.OpDIVU:
		u = alu(uDivU)
	case isa.OpREM:
		u = alu(uRem)
	case isa.OpREMU:
		u = alu(uRemU)
	case isa.OpAND:
		u = alu(uAnd)
	case isa.OpOR:
		u = alu(uOr)
	case isa.OpXOR:
		u = alu(uXor)
	case isa.OpSLL:
		u = alu(uSll)
	case isa.OpSRL:
		u = alu(uSrl)
	case isa.OpSRA:
		u = alu(uSra)
	case isa.OpSLT:
		u = alu(uSlt)
	case isa.OpSLTU:
		u = alu(uSltu)

	case isa.OpADDI:
		if ins.Rd != 0 && ins.Rd == ins.Rs1 && len(ops) > 0 {
			// Fold ADDI chains on the same register into one uop. The
			// intermediate value is never observable: ADDI cannot fault, so
			// any exit between the two additions is impossible.
			if p := &ops[len(ops)-1]; p.kind == uAddi && p.rd == ins.Rd && p.selfInsns < 255 {
				p.imm += ins.Imm
				p.selfCost += u.selfCost
				p.selfInsns++
				e.Stats.FusedUops++
				return ops
			}
		}
		u = alu(uAddi)
	case isa.OpANDI:
		u = alu(uAndi)
	case isa.OpORI:
		u = alu(uOri)
	case isa.OpXORI:
		u = alu(uXori)
	case isa.OpSLLI:
		u = alu(uSlli)
	case isa.OpSRLI:
		u = alu(uSrli)
	case isa.OpSRAI:
		u = alu(uSrai)
	case isa.OpSLTI:
		u = alu(uSlti)

	case isa.OpMOVIW, isa.OpMOVID:
		u.val = uint64(ins.Imm)
		u = alu(uLi)

	case isa.OpLB:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 1)
		u.kind, u.size, u.sh = uLoad, 1, 56
	case isa.OpLBU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 1)
		u.kind, u.size = uLoad, 1
	case isa.OpLH:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 2)
		u.kind, u.size, u.sh = uLoad, 2, 48
	case isa.OpLHU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 2)
		u.kind, u.size = uLoad, 2
	case isa.OpLW:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 4)
		u.kind, u.size, u.sh = uLoad, 4, 32
	case isa.OpLWU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 4)
		u.kind, u.size = uLoad, 4
	case isa.OpLD:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 8)
		u.kind, u.size = uLoad, 8
	case isa.OpSB:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 1)
		u.kind, u.size = uStore, 1
	case isa.OpSH:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 2)
		u.kind, u.size = uStore, 2
	case isa.OpSW:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 4)
		u.kind, u.size = uStore, 4
	case isa.OpSD:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 8)
		u.kind, u.size = uStore, 8
	case isa.OpFLD:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 8)
		u.kind = uFLoad
	case isa.OpFSD:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 8)
		u.kind = uFStore

	case isa.OpLL:
		u.kind = uLL
	case isa.OpSC:
		u.kind = uSC
	case isa.OpCAS:
		u.kind = uCAS
	case isa.OpAMOADD:
		u.kind = uAmoAdd
	case isa.OpAMOSWAP:
		u.kind = uAmoSwap
	case isa.OpFENCE:
		u.kind = uFence

	case isa.OpHINT:
		u.kind = uHint
	case isa.OpNOP:
		u.kind = uNop

	case isa.OpFADD:
		u.kind = uFAdd
	case isa.OpFSUB:
		u.kind = uFSub
	case isa.OpFMUL:
		u.kind = uFMul
	case isa.OpFDIV:
		u.kind = uFDiv
	case isa.OpFMIN:
		u.kind = uFMin
	case isa.OpFMAX:
		u.kind = uFMax
	case isa.OpFSQRT:
		u.kind = uFSqrt
	case isa.OpFNEG:
		u.kind = uFNeg
	case isa.OpFABS:
		u.kind = uFAbs
	case isa.OpFEXP:
		u.kind = uFExp
	case isa.OpFLN:
		u.kind = uFLn
	case isa.OpFMOVD:
		u.kind, u.val = uFMovImm, uint64(ins.Imm)
	case isa.OpFMV:
		u.kind = uFMv
	case isa.OpFMVXD:
		u = alu(uFMvXD)
	case isa.OpFMVDX:
		u.kind = uFMvDX
	case isa.OpFCVTDL:
		u.kind = uFCvtDL
	case isa.OpFCVTLD:
		u = alu(uFCvtLD)
	case isa.OpFEQ:
		u = alu(uFEq)
	case isa.OpFLT:
		u = alu(uFLt)
	case isa.OpFLE:
		u = alu(uFLe)

	default:
		// Terminators (branches, SVC, HALT, EBREAK) never reach lowerInsn;
		// anything else is undecodable here and ends the trace at runtime.
		u.kind = uEbreakExit
		u.pc = pc
	}
	return append(ops, u)
}

// lowerSan emits the DQSan instrumentation uop for a memory instruction.
// It precedes the memory uop (the access may clobber its own base register)
// and carries no cost and no retired instructions, so segment accounting
// and fault-refund arithmetic are unaffected.
func (e *Engine) lowerSan(ops []uop, ins *isa.Instruction, pc uint64, kind uopKind, size uint8) []uop {
	if e.San == nil {
		return ops
	}
	return append(ops, uop{kind: kind, pc: pc, rs1: ins.Rs1, imm: ins.Imm, size: size, exit: -1, exit2: -1})
}

// segBoundary reports whether k ends a cost segment: every uop that can
// leave the trace (exits, guards, back-edges) or stop the quantum mid-trace
// (atomics, syscalls, hints that may flush the cache).
func segBoundary(k uopKind) bool {
	switch k {
	case uGuard, uFusedCmpGuard, uBranchExit, uFusedCmpExit, uJalExit,
		uJalrExit, uLoopBack, uExit, uLL, uSC, uCAS, uAmoAdd, uAmoSwap,
		uSvcExit, uHint, uHaltExit, uEbreakExit:
		return true
	}
	return false
}

// segmentize computes the aggregate cost and instruction count of every
// straight-line segment and stores them on the segment's first uop. The
// executor charges the whole segment on entry; only a mid-segment fault
// (loads/stores, which are not boundaries) needs the per-uop selfCost to
// refund the unexecuted tail.
func segmentize(ops []uop) {
	segStart := 0
	var cost int32
	var insns uint16
	for i := range ops {
		u := &ops[i]
		cost += u.selfCost
		insns += uint16(u.selfInsns)
		if segBoundary(u.kind) || i == len(ops)-1 {
			ops[segStart].cost = cost
			ops[segStart].insns = insns
			cost, insns = 0, 0
			segStart = i + 1
		}
	}
}

// refundTail gives back the cost/insn charge of the uops after index i in
// i's segment, which did not execute because i faulted or exited early.
func refundTail(sb *superblock, i int, spent *int64, executed *uint64) {
	for j := i + 1; j < len(sb.ops); j++ {
		u := &sb.ops[j]
		if u.insns != 0 {
			break
		}
		*spent -= int64(u.selfCost)
		*executed -= uint64(u.selfInsns)
	}
}

// loadLE reads a little-endian value of 1, 2, 4 or 8 bytes from b.
func loadLE(b []byte, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// storeLE writes the low size bytes of val into b, little-endian.
func storeLE(b []byte, val uint64, size uint8) {
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
}

// slowLoad services an inline-TLB miss: it performs the access through the
// full softmmu path and, when the page qualifies (resident, readable,
// identity-mapped), installs it in the read TLB for subsequent accesses.
func (e *Engine) slowLoad(addr uint64, size uint8) (uint64, *mem.Fault) {
	v, fault := e.Mem.Load(addr, int(size))
	if fault == nil {
		pn := addr >> e.pageShift
		e.Mem.AccelFill(&e.rdTLB[pn&(accelTLBSize-1)], pn, false)
	}
	return v, fault
}

// slowStore is slowLoad's store counterpart, filling the write TLB.
func (e *Engine) slowStore(addr uint64, val uint64, size uint8) *mem.Fault {
	fault := e.Mem.Store(addr, val, int(size))
	if fault == nil {
		pn := addr >> e.pageShift
		e.Mem.AccelFill(&e.wrTLB[pn&(accelTLBSize-1)], pn, true)
	}
	return fault
}

// superFault exits the superblock on a page fault with PC at the faulting
// instruction, exactly like Engine.fault.
func (e *Engine) superFault(cpu *CPU, sb *superblock, i int, fl *mem.Fault, spent *int64, executed uint64) (*block, Result, bool, uint64) {
	refundTail(sb, i, spent, &executed)
	cpu.PC = sb.ops[i].pc
	e.Stats.Faults++
	*spent += e.Cost.FaultNs
	return nil, Result{Reason: StopPageFault, Fault: *fl}, true, executed
}

// execSuper executes a superblock. Like execBlock it returns the chained
// next block (nil when a cache lookup is needed) or stop=true with a Result.
// budgetNs bounds in-trace loops: the back-edge yields once the quantum is
// spent so a looping trace cannot monopolize Exec.
func (e *Engine) execSuper(cpu *CPU, sb *superblock, spent *int64, budgetNs int64) (*block, Result, bool) {
	next, res, stop, executed := e.execSuperRun(cpu, sb, spent, budgetNs)
	e.Stats.SuperblockInsns += executed
	e.Stats.ExecInsns += executed
	return next, res, stop
}

// execSuperRun is execSuper's uop dispatch loop; it returns the retired
// instruction count instead of deferring the stats update (a defer per call
// is measurable at trace-exit rates).
func (e *Engine) execSuperRun(cpu *CPU, sb *superblock, spent *int64, budgetNs int64) (next *block, res Result, stop bool, executed uint64) {
	x := &cpu.X
	f := &cpu.F
	mmu := e.Mem
	ops := sb.ops
	// e.Mon can only gain entries via this thread's LL while we are inside
	// the trace, so the emptiness check is hoisted out of the store path and
	// refreshed at the uops that could change it.
	monEmpty := e.Mon.Empty()

	for i := 0; i < len(ops); i++ {
		u := &ops[i]
		if u.insns != 0 {
			*spent += int64(u.cost)
			executed += uint64(u.insns)
		}
		switch u.kind {
		case uNop:

		case uFence:
			if e.San != nil {
				e.San.OnFence(cpu.TID)
			}

		case uSanRead:
			if e.San != nil {
				addr := x[u.rs1] + uint64(u.imm)
				e.San.OnLoad(cpu.TID, mmu.Translate(addr), int(u.size), u.pc)
			}
		case uSanWrite:
			if e.San != nil {
				addr := x[u.rs1] + uint64(u.imm)
				e.San.OnStore(cpu.TID, mmu.Translate(addr), int(u.size), u.pc)
			}

		case uAdd:
			x[u.rd] = x[u.rs1] + x[u.rs2]
		case uSub:
			x[u.rd] = x[u.rs1] - x[u.rs2]
		case uMul:
			x[u.rd] = x[u.rs1] * x[u.rs2]
		case uDiv:
			x[u.rd] = uint64(sdiv(int64(x[u.rs1]), int64(x[u.rs2])))
		case uDivU:
			if x[u.rs2] == 0 {
				x[u.rd] = ^uint64(0)
			} else {
				x[u.rd] = x[u.rs1] / x[u.rs2]
			}
		case uRem:
			x[u.rd] = uint64(srem(int64(x[u.rs1]), int64(x[u.rs2])))
		case uRemU:
			if x[u.rs2] == 0 {
				x[u.rd] = x[u.rs1]
			} else {
				x[u.rd] = x[u.rs1] % x[u.rs2]
			}
		case uAnd:
			x[u.rd] = x[u.rs1] & x[u.rs2]
		case uOr:
			x[u.rd] = x[u.rs1] | x[u.rs2]
		case uXor:
			x[u.rd] = x[u.rs1] ^ x[u.rs2]
		case uSll:
			x[u.rd] = x[u.rs1] << (x[u.rs2] & 63)
		case uSrl:
			x[u.rd] = x[u.rs1] >> (x[u.rs2] & 63)
		case uSra:
			x[u.rd] = uint64(int64(x[u.rs1]) >> (x[u.rs2] & 63))
		case uSlt:
			x[u.rd] = b2u(int64(x[u.rs1]) < int64(x[u.rs2]))
		case uSltu:
			x[u.rd] = b2u(x[u.rs1] < x[u.rs2])

		case uAddi:
			x[u.rd] = x[u.rs1] + uint64(u.imm)
		case uAndi:
			x[u.rd] = x[u.rs1] & uint64(u.imm)
		case uOri:
			x[u.rd] = x[u.rs1] | uint64(u.imm)
		case uXori:
			x[u.rd] = x[u.rs1] ^ uint64(u.imm)
		case uSlli:
			x[u.rd] = x[u.rs1] << (uint64(u.imm) & 63)
		case uSrli:
			x[u.rd] = x[u.rs1] >> (uint64(u.imm) & 63)
		case uSrai:
			x[u.rd] = uint64(int64(x[u.rs1]) >> (uint64(u.imm) & 63))
		case uSlti:
			x[u.rd] = b2u(int64(x[u.rs1]) < u.imm)
		case uLi:
			x[u.rd] = u.val

		case uLoad:
			addr := x[u.rs1] + uint64(u.imm)
			off := addr & e.pageMask
			var v uint64
			if ln := &e.rdTLB[(addr>>e.pageShift)&(accelTLBSize-1)]; ln.PageNo == addr>>e.pageShift &&
				ln.Epoch == mmu.Epoch() && off+uint64(u.size) <= e.pageMask+1 {
				v = loadLE(ln.Data[off:], u.size)
			} else {
				var fault *mem.Fault
				v, fault = e.slowLoad(addr, u.size)
				if fault != nil {
					return e.superFault(cpu, sb, i, fault, spent, executed)
				}
			}
			if u.sh != 0 {
				v = uint64(int64(v<<u.sh) >> u.sh)
			}
			wr(x, u.rd, v)
		case uStore:
			addr := x[u.rs1] + uint64(u.imm)
			off := addr & e.pageMask
			if ln := &e.wrTLB[(addr>>e.pageShift)&(accelTLBSize-1)]; ln.PageNo == addr>>e.pageShift &&
				ln.Epoch == mmu.Epoch() && off+uint64(u.size) <= e.pageMask+1 {
				storeLE(ln.Data[off:], x[u.rs2], u.size)
			} else if fault := e.slowStore(addr, x[u.rs2], u.size); fault != nil {
				return e.superFault(cpu, sb, i, fault, spent, executed)
			}
			if !monEmpty {
				e.Mon.OnStore(cpu.TID, mmu.Translate(addr))
			}
		case uFLoad:
			addr := x[u.rs1] + uint64(u.imm)
			off := addr & e.pageMask
			if ln := &e.rdTLB[(addr>>e.pageShift)&(accelTLBSize-1)]; ln.PageNo == addr>>e.pageShift &&
				ln.Epoch == mmu.Epoch() && off+8 <= e.pageMask+1 {
				f[u.rd] = math.Float64frombits(loadLE(ln.Data[off:], 8))
			} else {
				v, fault := e.slowLoad(addr, 8)
				if fault != nil {
					return e.superFault(cpu, sb, i, fault, spent, executed)
				}
				f[u.rd] = math.Float64frombits(v)
			}
		case uFStore:
			addr := x[u.rs1] + uint64(u.imm)
			off := addr & e.pageMask
			if ln := &e.wrTLB[(addr>>e.pageShift)&(accelTLBSize-1)]; ln.PageNo == addr>>e.pageShift &&
				ln.Epoch == mmu.Epoch() && off+8 <= e.pageMask+1 {
				storeLE(ln.Data[off:], math.Float64bits(f[u.rs2]), 8)
			} else if fault := e.slowStore(addr, math.Float64bits(f[u.rs2]), 8); fault != nil {
				return e.superFault(cpu, sb, i, fault, spent, executed)
			}
			if !monEmpty {
				e.Mon.OnStore(cpu.TID, mmu.Translate(addr))
			}

		case uGuard:
			if takeBranch(u.bop, x[u.rs1], x[u.rs2]) != u.expectTaken {
				cpu.PC = u.npc
				return e.exitVia(sb, u.exit), Result{}, false, executed
			}
		case uFusedCmpGuard:
			var c uint64
			if u.cmpU {
				c = b2u(x[u.rs1] < x[u.rs2])
			} else {
				c = b2u(int64(x[u.rs1]) < int64(x[u.rs2]))
			}
			x[u.rd] = c
			if takeBranch(u.bop, c, 0) != u.expectTaken {
				cpu.PC = u.npc
				return e.exitVia(sb, u.exit), Result{}, false, executed
			}
		case uBranchExit:
			if takeBranch(u.bop, x[u.rs1], x[u.rs2]) {
				cpu.PC = u.npc
				return e.exitVia(sb, u.exit), Result{}, false, executed
			}
			cpu.PC = u.npc2
			return e.exitVia(sb, u.exit2), Result{}, false, executed
		case uFusedCmpExit:
			var c uint64
			if u.cmpU {
				c = b2u(x[u.rs1] < x[u.rs2])
			} else {
				c = b2u(int64(x[u.rs1]) < int64(x[u.rs2]))
			}
			x[u.rd] = c
			if takeBranch(u.bop, c, 0) {
				cpu.PC = u.npc
				return e.exitVia(sb, u.exit), Result{}, false, executed
			}
			cpu.PC = u.npc2
			return e.exitVia(sb, u.exit2), Result{}, false, executed

		case uLink:
			if u.rd != 0 {
				x[u.rd] = u.val
			}
		case uJalExit:
			if u.rd != 0 {
				x[u.rd] = u.val
			}
			cpu.PC = u.npc
			return e.exitVia(sb, u.exit), Result{}, false, executed
		case uJalrExit:
			target := (x[u.rs1] + uint64(u.imm)) &^ 3
			if u.rd != 0 {
				x[u.rd] = u.val
			}
			cpu.PC = target
			if !e.NoJumpCache && !e.NoCache {
				if h := &e.jc[(target>>2)&(jcSize-1)]; h.pc == target && h.gen == e.gen {
					e.Stats.JumpCacheHits++
					// Tail-call straight into the target's superblock when
					// it has one, without bouncing through Exec's dispatch.
					// The entry warms the target; a closure-compiled target,
					// or one this entry made hot enough to compile, instead
					// bounces so Exec runs (or builds) its tier-3 form.
					if nsb := h.blk.sb; nsb != nil && !e.NoSuperblock && nsb.gen == e.gen && *spent < budgetNs {
						if (nsb.t3 == nil || e.NoTier3) && !e.warm(nsb) {
							sb = nsb
							ops = sb.ops
							i = -1
							continue
						}
					}
					return h.blk, Result{}, false, executed
				}
				// Miss: fall through to Exec's lookup, which fills the cache
				// (and counts the miss).
			}
			return nil, Result{}, false, executed
		case uLoopBack:
			// Yield at the loop head when the quantum is spent, the trace
			// was retired, or this iteration made it hot enough for tier-3.
			if *spent >= budgetNs || sb.gen != e.gen || e.warm(sb) {
				cpu.PC = sb.entry
				return nil, Result{}, false, executed
			}
			i = -1
		case uExit:
			cpu.PC = u.npc
			return e.exitVia(sb, u.exit), Result{}, false, executed

		case uLL:
			addr := x[u.rs1]
			if addr%8 != 0 {
				return e.superAlign(cpu, sb, i, addr, spent, executed)
			}
			v, fault := mmu.Load(addr, 8)
			if fault != nil {
				return e.superFault(cpu, sb, i, fault, spent, executed)
			}
			e.Mon.OnLL(cpu.TID, mmu.Translate(addr))
			if e.San != nil {
				e.San.OnAtomic(cpu.TID, mmu.Translate(addr), 8, u.pc, false)
			}
			monEmpty = false
			wr(x, u.rd, v)
		case uSC:
			addr := x[u.rs1]
			if addr%8 != 0 {
				return e.superAlign(cpu, sb, i, addr, spent, executed)
			}
			taddr := mmu.Translate(addr)
			if mmu.PermOf(mmu.PageOf(taddr)) != mem.PermReadWrite {
				return e.superFault(cpu, sb, i, &mem.Fault{Addr: taddr, Page: mmu.PageOf(taddr), Write: true}, spent, executed)
			}
			if e.Mon.ValidateSC(cpu.TID, taddr) {
				if fault := mmu.Store(addr, x[u.rs2], 8); fault != nil {
					return e.superFault(cpu, sb, i, fault, spent, executed)
				}
				if e.San != nil {
					e.San.OnAtomic(cpu.TID, taddr, 8, u.pc, true)
				}
				wr(x, u.rd, 0)
			} else {
				if e.San != nil {
					e.San.OnAtomic(cpu.TID, taddr, 8, u.pc, false)
				}
				wr(x, u.rd, 1)
				if e.StopAtomic {
					cpu.PC = u.pc + 4
					return nil, Result{Reason: StopBudget}, true, executed
				}
			}
		case uCAS, uAmoAdd, uAmoSwap:
			addr := x[u.rs1]
			if addr%8 != 0 {
				return e.superAlign(cpu, sb, i, addr, spent, executed)
			}
			taddr := mmu.Translate(addr)
			if mmu.PermOf(mmu.PageOf(taddr)) != mem.PermReadWrite {
				return e.superFault(cpu, sb, i, &mem.Fault{Addr: taddr, Page: mmu.PageOf(taddr), Write: true}, spent, executed)
			}
			old, fault := mmu.Load(addr, 8)
			if fault != nil {
				return e.superFault(cpu, sb, i, fault, spent, executed)
			}
			var newVal uint64
			doStore := true
			switch u.kind {
			case uCAS:
				newVal = x[u.rs2]
				doStore = old == x[u.rd]
			case uAmoAdd:
				newVal = old + x[u.rs2]
			case uAmoSwap:
				newVal = x[u.rs2]
			}
			if doStore {
				if fault := mmu.Store(addr, newVal, 8); fault != nil {
					return e.superFault(cpu, sb, i, fault, spent, executed)
				}
				if !e.Mon.Empty() {
					e.Mon.OnStore(cpu.TID, taddr)
				}
			}
			if e.San != nil {
				e.San.OnAtomic(cpu.TID, taddr, 8, u.pc, doStore)
			}
			wr(x, u.rd, old)
			if e.StopAtomic && u.kind == uCAS && !doStore {
				cpu.PC = u.pc + 4
				return nil, Result{Reason: StopBudget}, true, executed
			}

		case uSvcExit:
			e.Stats.Syscalls++
			*spent += e.Cost.SyscallNs
			cpu.PC = u.pc + 4
			return nil, Result{Reason: StopSyscall}, true, executed
		case uHint:
			cpu.HintGroup = u.imm
			if e.OnHint != nil {
				e.OnHint(cpu.TID, u.imm)
				monEmpty = e.Mon.Empty()
				if sb.gen != e.gen {
					// The hook flushed the translation cache: leave the
					// retired trace at the next instruction boundary.
					cpu.PC = u.pc + 4
					return nil, Result{}, false, executed
				}
			}
		case uHaltExit:
			cpu.PC = u.pc + 4
			return nil, Result{Reason: StopHalt}, true, executed
		case uEbreakExit:
			cpu.PC = u.pc
			return nil, Result{Reason: StopEBreak}, true, executed

		case uFAdd:
			f[u.rd] = f[u.rs1] + f[u.rs2]
		case uFSub:
			f[u.rd] = f[u.rs1] - f[u.rs2]
		case uFMul:
			f[u.rd] = f[u.rs1] * f[u.rs2]
		case uFDiv:
			f[u.rd] = f[u.rs1] / f[u.rs2]
		case uFMin:
			f[u.rd] = math.Min(f[u.rs1], f[u.rs2])
		case uFMax:
			f[u.rd] = math.Max(f[u.rs1], f[u.rs2])
		case uFSqrt:
			f[u.rd] = math.Sqrt(f[u.rs1])
		case uFNeg:
			f[u.rd] = -f[u.rs1]
		case uFAbs:
			f[u.rd] = math.Abs(f[u.rs1])
		case uFExp:
			f[u.rd] = math.Exp(f[u.rs1])
		case uFLn:
			f[u.rd] = math.Log(f[u.rs1])
		case uFMovImm:
			f[u.rd] = math.Float64frombits(u.val)
		case uFMv:
			f[u.rd] = f[u.rs1]
		case uFMvXD:
			x[u.rd] = math.Float64bits(f[u.rs1])
		case uFMvDX:
			f[u.rd] = math.Float64frombits(x[u.rs1])
		case uFCvtDL:
			f[u.rd] = float64(int64(x[u.rs1]))
		case uFCvtLD:
			x[u.rd] = uint64(int64(f[u.rs1]))
		case uFEq:
			x[u.rd] = b2u(f[u.rs1] == f[u.rs2])
		case uFLt:
			x[u.rd] = b2u(f[u.rs1] < f[u.rs2])
		case uFLe:
			x[u.rd] = b2u(f[u.rs1] <= f[u.rs2])

		default:
			refundTail(sb, i, spent, &executed)
			cpu.PC = u.pc
			return nil, Result{Reason: StopError, Err: fmt.Errorf("tcg: bad uop %d at %#x", u.kind, u.pc)}, true, executed
		}
	}
	// Unreachable: every trace ends with an exit uop.
	cpu.PC = sb.entry
	return nil, Result{Reason: StopError, Err: fmt.Errorf("tcg: superblock at %#x fell off the end", sb.entry)}, true, executed
}

// superAlign exits the superblock on a misaligned atomic, like badAlign.
func (e *Engine) superAlign(cpu *CPU, sb *superblock, i int, addr uint64, spent *int64, executed uint64) (*block, Result, bool, uint64) {
	refundTail(sb, i, spent, &executed)
	cpu.PC = sb.ops[i].pc
	return nil, Result{Reason: StopError, Err: fmt.Errorf("tcg: misaligned atomic %#x at %#x", addr, sb.ops[i].pc)}, true, executed
}
