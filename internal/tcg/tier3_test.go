package tcg

import (
	"testing"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// tier3State runs src under one rung of the translation ladder and returns
// the final architectural state plus the engine for stats inspection. Small
// quantum slices: each Exec re-enters the hot superblock, driving its heat
// past the tier-3 threshold as the scheduler's quantum boundaries would.
func tier3State(t *testing.T, src string, tune func(*Engine)) (*CPU, *Engine) {
	t.Helper()
	cpu, e, _, _ := ladderRun(t, src, 1_500, tune)
	return cpu, e
}

// ladderRun runs src to HALT in Exec calls of quantumNs each under one rung
// of the translation ladder. Every SVC is a console write of a2 bytes at a1.
// It returns the final CPU, the engine, the console, and the scratch pages
// at 0x20000.
func ladderRun(t *testing.T, src string, quantumNs int64, tune func(*Engine)) (*CPU, *Engine, string, []byte) {
	t.Helper()
	space, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2 // promote quickly so short test programs climb the ladder
	if tune != nil {
		tune(e)
	}
	var console []byte
	for i := 0; i < 1_000_000; i++ {
		res := e.Exec(cpu, quantumNs)
		switch res.Reason {
		case StopHalt:
			scratch := make([]byte, 0x2000)
			if err := space.ReadBytes(0x20000, scratch); err != nil {
				t.Fatal(err)
			}
			return cpu, e, string(console), scratch
		case StopSyscall:
			buf := make([]byte, cpu.X[isa.RegA2])
			if err := space.ReadBytes(cpu.X[isa.RegA1], buf); err != nil {
				t.Fatal(err)
			}
			console = append(console, buf...)
		case StopBudget:
		default:
			t.Fatalf("stop: %+v", res)
		}
	}
	t.Fatalf("program did not halt")
	return nil, nil, "", nil
}

// tier3Rungs is the four-way ladder the differential tests compare:
// interpreter, tier-2 superblocks, tier-3 closures, and tier-3 with the
// mined peephole rules applied.
func tier3Rungs() map[string]func(*Engine) {
	return map[string]func(*Engine){
		"interp": func(e *Engine) {
			e.NoCache, e.NoChain, e.NoSuperblock, e.NoJumpCache = true, true, true, true
		},
		"superblock": func(e *Engine) { e.NoTier3, e.NoPeephole = true, true },
		"tier3":      func(e *Engine) { e.NoPeephole = true; e.Tier3Threshold = 2 },
		"tier3+peep": func(e *Engine) { e.Tier3Threshold = 2 },
	}
}

// TestTier3MatchesBaselineState is the four-way differential: every rung of
// the ladder must leave bit-identical registers, PC, memory and console on a
// workload that exercises ALU, memory, FP, and calls; and the tier-3 rungs
// must actually have executed compiled closures rather than silently falling
// back. The "tier3@backedge" rung runs whole-program quanta at the default
// threshold, so the loop turns hot at a back-edge in the middle of a quantum
// and tier-2 hands it to tier-3 there.
func TestTier3MatchesBaselineState(t *testing.T) {
	const src = `
_start:
	li   s0, 0           ; checksum
	li   s1, 0           ; i
	li   s2, 400         ; iterations
	li   s3, 0x20000     ; scratch array base
	fmovd f2, 1.5
loop:
	; memory traffic: two stores, two loads through the same base
	sd   s1, 0(s3)
	sd   s0, 8(s3)
	ld   t0, 0(s3)
	ld   t1, 8(s3)
	add  s0, t0, t1
	fsd  f2, 16(s3)
	fld  f3, 16(s3)
	fadd f2, f3, f2
	; a store that walks the array, so memory differs per iteration
	slli t4, s1, 3
	add  t4, t4, s3
	sd   s0, 64(t4)
	; ALU mix with addi neighbours (peephole and fusion food); the
	; mv-bounce (addi rd,rs,0 ; addi rs,rd,0) and addi-zero shapes below
	; are exactly what the mined rules rewrite.
	addi t3, s0, 0
	addi s0, t3, 0
	addi s5, s5, 0
	addi t2, s0, 7
	andi t2, t2, 1023
	xor  s0, s0, t2
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	fcvt.l.d s4, f2
	; console: the checksum's 8 bytes
	sd   s0, 32(s3)
	li   a7, 64
	li   a0, 1
	addi a1, s3, 32
	li   a2, 8
	svc  0
	halt
`
	type state struct {
		x       [32]uint64
		f       [32]float64
		pc      uint64
		console string
		mem     string
	}
	rungs := tier3Rungs()
	rungs["tier3@backedge"] = func(e *Engine) { e.HotThreshold, e.Tier3Threshold = 0, 0 }
	states := map[string]state{}
	for name, tune := range rungs {
		quantum := int64(1_500)
		if name == "tier3@backedge" {
			quantum = 10_000_000
		}
		cpu, e, console, scratch := ladderRun(t, src, quantum, tune)
		states[name] = state{cpu.X, cpu.F, cpu.PC, console, string(scratch)}
		switch name {
		case "tier3", "tier3+peep", "tier3@backedge":
			if e.Stats.Tier3Superblocks == 0 || e.Stats.Tier3Insns == 0 {
				t.Errorf("%s: no tier-3 execution (superblocks=%d insns=%d)",
					name, e.Stats.Tier3Superblocks, e.Stats.Tier3Insns)
			}
		case "interp":
			if e.Stats.Tier3Insns != 0 || e.Stats.Superblocks != 0 {
				t.Errorf("interp: unexpectedly ran upper tiers (%+v)", e.Stats)
			}
		}
		if name == "tier3@backedge" && e.Stats.SuperblockEntries >= DefaultTier3Threshold {
			t.Errorf("tier3@backedge: %d dispatches reach the threshold alone; promotion did not happen at a back-edge",
				e.Stats.SuperblockEntries)
		}
		if name == "tier3+peep" && e.Stats.PeepApplied == 0 {
			t.Errorf("tier3+peep: no peephole rules applied")
		}
	}
	want := states["interp"]
	if len(want.console) != 8 {
		t.Fatalf("interp console = %q, want the checksum's 8 bytes", want.console)
	}
	for name, got := range states {
		if got.x != want.x || got.f != want.f || got.pc != want.pc {
			t.Errorf("rung %s diverged from interpreter:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
				name, got.pc, got.x, want.pc, want.x)
		}
		if got.console != want.console {
			t.Errorf("rung %s console = %q, want %q", name, got.console, want.console)
		}
		if got.mem != want.mem {
			t.Errorf("rung %s left different memory than the interpreter", name)
		}
	}
}

// TestTier3MidRunInvalidationDemotes flushes the translation cache from a
// hint hook firing *inside* a compiled tier-3 trace. The generation guard
// must demote to tier-2 at the next instruction boundary (no stale closure
// may keep running), the loop must re-heat and re-promote afterwards, and
// the final state must match an undisturbed run exactly.
func TestTier3MidRunInvalidationDemotes(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 600
loop:
	hint 1
	add  s0, s0, s1
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	halt
`
	baseline, _ := tier3State(t, src, func(e *Engine) { e.Tier3Threshold = 2 })

	_, eng, cpu, im := setupImage(t, src)
	eng.HotThreshold = 2
	eng.Tier3Threshold = 2
	codePage := eng.Mem.PageOf(eng.Mem.Translate(im.Entry))
	var hints int
	eng.OnHint = func(tid, group int64) {
		hints++
		if hints%200 == 0 {
			// Invalidate the page the loop's code lives on, as the
			// coherence layer would on a code-page migration.
			eng.InvalidatePage(codePage)
		}
	}
	halted := false
	for i := 0; i < 1_000_000 && !halted; i++ {
		res := eng.Exec(cpu, 1_500)
		switch res.Reason {
		case StopHalt:
			halted = true
		case StopBudget:
		default:
			t.Fatalf("stop: %+v", res)
		}
	}
	if !halted {
		t.Fatalf("program did not halt")
	}
	if eng.Stats.Tier3Demotions == 0 {
		t.Fatalf("no tier-3 demotions despite mid-run invalidation (stats %+v)", eng.Stats)
	}
	if eng.Stats.Flushes == 0 {
		t.Fatalf("invalidation did not flush the cache")
	}
	if eng.Stats.Tier3Superblocks < 2 {
		t.Errorf("loop did not re-promote after the flush (tier3 superblocks=%d)",
			eng.Stats.Tier3Superblocks)
	}
	if cpu.X != baseline.X || cpu.PC != baseline.PC {
		t.Errorf("mid-run invalidation changed final state:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
			cpu.PC, cpu.X, baseline.PC, baseline.X)
	}
}

// TestTier3ExecAllocs pins the steady-state allocation guarantee: once a
// loop is closure-compiled, re-entering it through Exec allocates nothing.
// (Compilation itself may allocate; only the run loop is under test.)
func TestTier3ExecAllocs(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s3, 0x20000
loop:
	sd   s1, 0(s3)
	ld   t0, 0(s3)
	add  s0, s0, t0
	addi s1, s1, 1
	j    loop
`
	_, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2
	e.Tier3Threshold = 2
	// Heat: promote through tier-1 -> tier-2 -> tier-3.
	for i := 0; i < 64; i++ {
		if res := e.Exec(cpu, 200_000); res.Reason != StopBudget {
			t.Fatalf("heat run stopped: %+v", res)
		}
	}
	if e.Stats.Tier3Insns == 0 {
		t.Fatalf("loop never reached tier-3 (stats %+v)", e.Stats)
	}
	if n := testing.AllocsPerRun(100, func() {
		if res := e.Exec(cpu, 200_000); res.Reason != StopBudget {
			t.Fatalf("steady-state run stopped: %+v", res)
		}
	}); n != 0 {
		t.Errorf("steady-state tier-3 Exec allocates %v times per run, want 0", n)
	}
}

// TestTier3MemRunFaultRestart drives a fused memory run into a page fault on
// its *last* access and checks precise-restart semantics: the earlier
// accesses of the run (and their folded address updates) must have retired,
// the faulting PC must point at the faulting instruction, and after mapping
// the page the program must complete with the same state as a fault-free
// run.
func TestTier3MemRunFaultRestart(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 5000
	li   s3, 0x20000
	li   s4, 0x3f000     ; second page, revoked below
loop:
	sd   s1, 0(s3)
	sd   s0, 8(s3)
	ld   t0, 0(s3)
	sd   t0, 0(s4)       ; faults once the page is revoked
	add  s0, s0, t0
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	halt
`
	// Fault-free baseline.
	baseline, _ := tier3State(t, src, func(e *Engine) { e.Tier3Threshold = 2 })

	space, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2
	e.Tier3Threshold = 2
	// Heat until tier-3 is live, then revoke the second page mid-run.
	for i := 0; i < 30; i++ {
		if res := e.Exec(cpu, 1_500); res.Reason != StopBudget {
			t.Fatalf("heat run stopped: %+v", res)
		}
	}
	if e.Stats.Tier3Insns == 0 {
		t.Fatalf("loop never reached tier-3 (stats %+v)", e.Stats)
	}
	faultPage := space.PageOf(0x3f000)
	space.SetPerm(faultPage, mem.PermNone)
	var res Result
	for i := 0; i < 1000; i++ {
		res = e.Exec(cpu, 100_000)
		if res.Reason == StopPageFault {
			break
		}
		if res.Reason != StopBudget {
			t.Fatalf("unexpected stop: %+v", res)
		}
	}
	if res.Reason != StopPageFault {
		t.Fatalf("revoked page never faulted")
	}
	if got := space.PageOf(space.Translate(res.Fault.Addr)); got != faultPage {
		t.Fatalf("fault addr %#x not on revoked page", res.Fault.Addr)
	}
	// The faulting PC must be the sd into the revoked page, and the fused
	// run's earlier accesses must already have retired: 0(s3) holds s1.
	var word [8]byte
	space.SetPerm(faultPage, mem.PermReadWrite)
	if err := space.ReadBytes(0x20000, word[:]); err != nil {
		t.Fatal(err)
	}
	if le := uint64(word[0]) | uint64(word[1])<<8 | uint64(word[2])<<16 | uint64(word[3])<<24 |
		uint64(word[4])<<32 | uint64(word[5])<<40 | uint64(word[6])<<48 | uint64(word[7])<<56; le != cpu.X[19] /* s1 */ {
		t.Errorf("earlier access of the fused run did not retire before the fault: mem %d, s1 %d",
			le, cpu.X[19] /* s1 */)
	}
	// Restore the page and finish; state must match the fault-free run.
	res = runToStop(t, e, cpu)
	if res.Reason != StopHalt {
		t.Fatalf("stop after restart: %+v", res)
	}
	if cpu.X != baseline.X || cpu.PC != baseline.PC {
		t.Errorf("fault-and-restart diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
			cpu.PC, cpu.X, baseline.PC, baseline.X)
	}
}
