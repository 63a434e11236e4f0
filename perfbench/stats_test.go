package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		want      float64
		gotPct    float64
		gotSample float64
	}{
		{1000, 99, 99, 990},    // ten beyond p99
		{999, 99, 98, 980},     // nine beyond p99: fall back
		{100, 95, 90, 90},      // p95 has five beyond
		{200, 95, 95, 190},     // exactly ten beyond
		{12, 90, 50, 6},        // too few for any tail but the median
		{2000, 99.9, 99, 1980}, // p99.9 has two beyond
	}
	for _, c := range cases {
		v, pct := tail(seq(c.n), c.want)
		if pct != c.gotPct || v != c.gotSample {
			t.Errorf("n=%d want p%g: got p%g=%g, expected p%g=%g", c.n, c.want, pct, v, c.gotPct, c.gotSample)
		}
	}
}

func TestTailCountsFailedOpsBeyondAnyLimit(t *testing.T) {
	// 190 passing ops of 1..190 ms and 10 failures charged at the 10 s
	// limit: p95 is the slowest passing op, and p95 with 11 failures is
	// the limit itself.
	xs := seq(190)
	for i := 0; i < 10; i++ {
		xs = append(xs, 10_000)
	}
	if v, pct := tail(xs, 95); pct != 95 || v != 190 {
		t.Fatalf("p95 = %g at p%g, want 190", v, pct)
	}
	xs = seq(189)
	for i := 0; i < 11; i++ {
		xs = append(xs, 10_000)
	}
	if v, _ := tail(xs, 95); v != 10_000 {
		t.Fatalf("p95 with 11 failures = %g, want the limit", v)
	}
}

func TestVirtGmeanChargesFailuresAtLimit(t *testing.T) {
	const limit = 5_000_000_000
	ms := []float64{
		virtMs(true, 2_000_000, limit),  // 2 ms
		virtMs(true, 8_000_000, limit),  // 8 ms
		virtMs(false, 1_000_000, limit), // deadlocked after 1 ms: charged 5000 ms
	}
	if ms[2] != 5000 {
		t.Fatalf("failed op charged %g ms, want 5000", ms[2])
	}
	want := math.Cbrt(2 * 8 * 5000)
	if got := gmean(ms); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gmean = %g, want %g", got, want)
	}
	// Fixing the failure lowers the metric.
	if fixed := gmean([]float64{2, 8, 1}); fixed >= want {
		t.Fatalf("gmean after fix %g not below %g", fixed, want)
	}
}

func TestRatesCountCompletedWorkOverAllTime(t *testing.T) {
	// Each window spends 2 s on ops; one op passed with 3 Minsn, the
	// failed op's time still counts and its work does not.
	ws := []window{
		{seconds: 2, passed: 1, insns: 3_000_000},
		{seconds: 2, passed: 1, insns: 3_000_000},
		{seconds: 1, passed: 2, insns: 4_000_000}, // a fast window
	}
	ops, minsn := rates(ws)
	if ops != 0.5 || minsn != 1.5 {
		t.Fatalf("rates = %g ops/s, %g Minsn/s; want medians 0.5 and 1.5", ops, minsn)
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(6, 1); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("failFrac(6,1) = %g", got)
	}
	if got := failFrac(0, 0); got != 0 {
		t.Fatalf("failFrac(0,0) = %g", got)
	}
	m := newMeasurement()
	m.attempted = 4
	m.fail("deadlock", false)
	m.fail("wrong: console", true)
	if m.failed != 2 || m.wrong != 1 || failFrac(m.attempted, m.failed) != 0.5 {
		t.Fatalf("measurement tally failed=%d wrong=%d", m.failed, m.wrong)
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %g", got)
	}
}
