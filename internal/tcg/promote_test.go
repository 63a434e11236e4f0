package tcg

import "testing"

// The promotion tests run at the default thresholds and the cluster's
// default 100 µs quantum, so they see the warm-up a one-node guest job sees.
const promoteQuantumNs = 100_000

// tier2Frac runs src for up to quanta Exec calls of the default quantum, or
// until it halts, and returns the share of retired guest instructions that
// tier-2 retired.
func tier2Frac(t *testing.T, src string, quanta int) (float64, *Engine) {
	t.Helper()
	_, e, cpu, _ := setupImage(t, src)
	for i := 0; i < quanta; i++ {
		res := e.Exec(cpu, promoteQuantumNs)
		if res.Reason == StopHalt {
			break
		}
		if res.Reason != StopBudget {
			t.Fatalf("quantum %d: %+v", i, res)
		}
	}
	if e.Stats.Tier3Insns == 0 {
		t.Errorf("nothing ran on tier-3 (stats %+v)", e.Stats)
	}
	return float64(e.Stats.SuperblockInsns) / float64(e.Stats.ExecInsns), e
}

// TestTier3PromotesSelfLoop: a loop that spans whole quanta is dispatched
// once per quantum, so counting dispatches alone kept it on tier-2 for the
// first Tier3Threshold quanta. Back-edge iterations count toward its heat,
// so it reaches tier-3 within its first quantum.
func TestTier3PromotesSelfLoop(t *testing.T) {
	// The service's "sum" job: s += (i*i + SALT) % 1009.
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 100000000
	li   s3, 1009
loop:
	mul  t0, s1, s1
	addi t0, t0, 7
	rem  t0, t0, s3
	add  s0, s0, t0
	addi s1, s1, 1
	blt  s1, s2, loop
	halt
`
	frac, e := tier2Frac(t, src, 30)
	if frac > 0.02 {
		t.Errorf("tier-2 retired %.1f%% of instructions over 30 quanta, want <= 2%% (stats %+v)",
			100*frac, e.Stats)
	}
}

// TestTier3PromotesTailChainedCalls: a call loop whose returns tail-chain
// from superblock to superblock inside tier-2 never comes back to Exec's
// dispatch, so a short job finished on tier-2 before its traces were
// dispatched often enough. The tail-chained entries count toward heat, so
// the traces are handed to tier-3 at the call boundary.
func TestTier3PromotesTailChainedCalls(t *testing.T) {
	// The service's "count" job on one node: 4 x 270 rounds of
	// mutex_lock; counter += idx + 1; mutex_unlock.
	const src = `
_start:
	li   s0, 0x20000     ; lock word; the counter is at 8(s0)
	li   s1, 0
	li   s2, 1080
loop:
	mv   a0, s0
	call lock
	ld   t0, 8(s0)
	add  t0, t0, s1
	addi t0, t0, 1
	sd   t0, 8(s0)
	mv   a0, s0
	call unlock
	addi s1, s1, 1
	blt  s1, s2, loop
	halt
lock:
	ld   t1, 0(a0)
	bnez t1, lock
	li   t2, 0
	li   t3, 1
	cas  t2, t3, (a0)
	bnez t2, lock
	ret
unlock:
	fence
	sd   x0, 0(a0)
	ret
`
	frac, e := tier2Frac(t, src, 30)
	if frac > 0.10 {
		t.Errorf("tier-2 retired %.1f%% of instructions, want <= 10%% (stats %+v)",
			100*frac, e.Stats)
	}
}

// TestTier2NoYieldWithoutTier3: a superblock that will never be compiled —
// the closure compiler refused it (t3fail), or tier-3 is off — must not
// hand control back to Exec on every back-edge: each Exec dispatches it
// once and it runs the whole quantum on tier-2.
func TestTier2NoYieldWithoutTier3(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 100000000
loop:
	add  s0, s0, s1
	addi s1, s1, 1
	blt  s1, s2, loop
	halt
`
	for name, tune := range map[string]func(*Engine){
		"refused": nil,
		"notier3": func(e *Engine) { e.NoTier3 = true },
	} {
		t.Run(name, func(t *testing.T) {
			_, e, cpu, _ := setupImage(t, src)
			if tune != nil {
				tune(e)
			}
			// Run the loop until it is a superblock, then mark it refused
			// before its heat can reach the threshold.
			var sb *superblock
			for i := 0; sb == nil && i < 1000; i++ {
				if res := e.Exec(cpu, 200); res.Reason != StopBudget {
					t.Fatalf("warm-up: %+v", res)
				}
				for _, b := range e.cache {
					if b.sb != nil {
						sb = b.sb
					}
				}
			}
			if sb == nil {
				t.Fatal("loop was not promoted to a superblock")
			}
			if name == "refused" {
				if sb.t3 != nil {
					t.Fatal("superblock compiled during warm-up")
				}
				sb.t3fail = true
			}
			for i := 0; i < 30; i++ {
				entries, insns := e.Stats.SuperblockEntries, e.Stats.SuperblockInsns
				res := e.Exec(cpu, promoteQuantumNs)
				if res.Reason != StopBudget || res.TimeNs < promoteQuantumNs {
					t.Fatalf("quantum %d ended early: %+v", i, res)
				}
				if d := e.Stats.SuperblockEntries - entries; d != 1 {
					t.Fatalf("quantum %d: %d superblock dispatches, want 1 (tier-2 yielded mid-quantum)", i, d)
				}
				if d := e.Stats.SuperblockInsns - insns; d < promoteQuantumNs/2 {
					t.Fatalf("quantum %d: tier-2 retired only %d instructions", i, d)
				}
			}
			if e.Stats.Tier3Superblocks != 0 || sb.t3 != nil {
				t.Errorf("superblock reached tier-3 (stats %+v)", e.Stats)
			}
		})
	}
}
