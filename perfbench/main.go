// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points of the layers, checks
// every op's console and exit code against a pinned reference, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. See README.md in this directory.
//
//	bash perfbench/run.sh --workload compute --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dqemu/internal/asm"
	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/minicc"
)

const (
	// defaultSeed is the seed runs use unless told otherwise. heldOutSeed
	// is kept out of tuning; a performance claim is checked on it too.
	defaultSeed = 1
	heldOutSeed = 20201
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 7
)

// env is a set-up workload, ready to issue timed ops.
type env interface {
	// run measures for d, and at least one round; with a recorder it also
	// records spans and reports per-layer metrics.
	run(d time.Duration, rec *recorder) (*measurement, error)
	close()
}

type workload struct {
	name string
	// clock is the time base of the workload's op timings: host time for
	// the single-threaded simulator, wall time for the live cluster and
	// the service.
	clock string
	// tailPct is the tail percentile reported: the highest that keeps at
	// least ten samples beyond it at the benchmark's run length.
	tailPct float64
	setup   func(seed int64, refs map[string]reference, rec *recorder) (env, error)
}

var workloadList = []workload{
	{"compute", "host", 95, setupCompute},
	{"sharing", "host", 90, setupSharing},
	{"live", "wall", 95, setupLive},
	{"service", "wall", 98, setupService},
}

// measurement is what one measured loop produced.
type measurement struct {
	attempted, failed int
	wrong             int       // ops whose output or determinism check failed
	latMs             []float64 // op latencies, failed ops at their limit where counted
	windows           []window
	virtMs            []float64 // virtual ms of the ops virt_ms_gmean covers
	rssMB             []float64 // resident set sampled after every round or window
	reasons           map[string]int
	layers            map[string]float64
}

func newMeasurement() *measurement { return &measurement{reasons: map[string]int{}} }

func (m *measurement) fail(reason string, wrong bool) {
	m.failed++
	if wrong {
		m.wrong++
	}
	if len(reason) > 160 {
		reason = reason[:160]
	}
	m.reasons[reason]++
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: compute, sharing, live or service")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("seed of every input draw (held-out seed for claims: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 20, "how long the measured loop runs")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace and CPU profile")
	checker := flag.String("trace-check", "", "dqemu-trace-check binary that validates the trace file")
	genref := flag.String("genref", "", "regenerate the reference file at this path and exit")
	flag.Parse()

	if *genref != "" {
		if err := genRefs(*genref); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, d, *out, *checker)
	} else {
		res, err = plainRun(w, *seed, d)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setup loads the references and sets the workload up.
func setup(w *workload, seed int64, rec *recorder) (env, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	return w.setup(seed, refs, rec)
}

// plainRun is the untraced run: it sets up setupReps times, measures once,
// and reports the end-to-end metrics.
func plainRun(w *workload, seed int64, d time.Duration) (*result, error) {
	var setupS []float64
	var e env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = setup(w, seed, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	m, err := e.run(d, nil)
	e.close()
	if err != nil {
		return nil, err
	}
	opsPerS, minsnPerS := rates(m.windows)
	tailMs, tailPct := tail(m.latMs, w.tailPct)
	res := &result{
		Correct:   m.wrong == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"sim_minsn_per_s": {minsnPerS, "Minsn/s"},
			"virt_ms_gmean":   {gmean(m.virtMs), "ms"},
			"ops_per_s":       {opsPerS, "1/s"},
			"op_p50_ms":       {median(m.latMs), "ms"},
			"op_tail_ms":      {tailMs, "ms"},
			"pass_frac":       {1 - failFrac(m.attempted, m.failed), "frac"},
			"setup_s":         {median(setupS), "s"},
			"rss_mb":          {median(m.rssMB), "MB"},
		},
	}
	report(w, m, res, fmt.Sprintf("p%g over %d ops", tailPct, len(m.latMs)))
	return res, nil
}

// tracedRun measures d/2 untraced, then d/2 with spans, a CPU profile and
// Config.Metrics on, and reports the per-layer metrics of the traced half
// plus the tracing overhead against the untraced half.
func tracedRun(w *workload, seed int64, d time.Duration, out, checker string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	rec := newRecorder()
	e, err := setup(w, seed, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	if err := compileProbe(rec); err != nil {
		return nil, err
	}
	plain, err := e.run(d/2, nil)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPUMetrics()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m, err := e.run(d/2, rec)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	cpu1 := readCPUMetrics()
	runtime.ReadMemStats(&ms1)

	layers := map[string]float64{}
	for _, p := range perLayer {
		layers[p[0]] = 0
	}
	for k, v := range m.layers {
		layers[k] = v
	}
	layers["minicc.compile_ms"] = median(rec.durationsMs("minicc.compile"))
	layers["asm.assemble_ms"] = median(rec.durationsMs("asm.assemble"))
	layers["grt.build_ms"] = median(rec.durationsMs("grt.build"))
	layers["core.new_cluster_ms"] = median(rec.durationsMs("core.new_cluster"))
	shares, samples, err := leafShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for layer, frac := range shares {
		key := layer + ".host_frac"
		if _, ok := layers[key]; !ok {
			key = "other.host_frac"
		}
		layers[key] += frac
	}
	gc, busy := cpu1[0]-cpu0[0], (cpu1[1]-cpu0[1])-(cpu1[2]-cpu0[2])
	if busy > 0 {
		layers["go.gc_cpu_frac"] = gc / busy
	}
	layers["go.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(m.attempted)
	layers["go.heap_mb_end"] = float64(ms1.HeapAlloc) / 1e6
	plainOps, _ := rates(plain.windows)
	tracedOps, _ := rates(m.windows)
	if tracedOps > 0 {
		layers["bench.trace_overhead_frac"] = plainOps/tracedOps - 1
	}

	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(base + ".trace.json"); err != nil {
		return nil, err
	}
	if checker != "" {
		cmd := exec.Command(checker, "-trace", base+".trace.json")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("trace check: %w", err)
		}
	}

	res := &result{
		Correct:   plain.wrong == 0 && m.wrong == 0,
		Attempted: plain.attempted + m.attempted,
		Failed:    plain.failed + m.failed,
		Metrics:   map[string]metric{},
	}
	for _, p := range perLayer {
		res.Metrics[p[0]] = metric{layers[p[0]], p[1]}
	}
	report(w, m, res, fmt.Sprintf("traced half; %d CPU samples; trace %s.trace.json", samples, base))
	return res, nil
}

// compileProbe builds the first fixed service program in two timed halves,
// minicc (its source and the guest runtime) and asm (linking both), the
// steps every guest build repeats, and loads it into a two-slave cluster.
// The service reaches these layers only inside the daemon, where the
// benchmark cannot time them.
func compileProbe(rec *recorder) error {
	p := serviceFixed()[0]
	end := rec.start(0, 0, "minicc.compile")
	user, err := minicc.Compile(p.name+".mc", grt.Prelude+p.src)
	var rt []asm.Source
	if err == nil {
		rt, err = grt.RuntimeSources()
	}
	end()
	if err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	end = rec.start(0, 0, "asm.assemble")
	im, err := asm.Assemble(append(rt, asm.Source{Name: p.name + ".s", Text: user})...)
	end()
	if err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	end = rec.start(0, 0, "core.new_cluster")
	_, err = core.NewCluster(im, simConfig(2, false))
	end()
	if err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	return nil
}

// readCPUMetrics returns the Go runtime's cumulative GC, total and idle
// CPU seconds.
func readCPUMetrics() [3]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// rssMB is the process's current resident set (VmRSS), in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// report prints the human-readable summary to standard error: each metric
// with its unit, the failure tally, and a note.
func report(w *workload, m *measurement, res *result, note string) {
	fmt.Fprintf(os.Stderr, "perfbench %s: %d ops attempted, %d failed (fail_frac %.4f), %s\n",
		w.name, m.attempted, m.failed, failFrac(m.attempted, m.failed), note)
	reasons := make([]string, 0, len(m.reasons))
	for r := range m.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "  failed %4d x %s\n", m.reasons[r], r)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %-8s %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, timeBase(w, n))
	}
}

// timeBase labels an end-to-end metric with the clock it was measured on.
func timeBase(w *workload, name string) string {
	switch name {
	case "virt_ms_gmean":
		return "virtual"
	case "setup_s", "rss_mb":
		return "host"
	case "sim_minsn_per_s", "ops_per_s", "op_p50_ms", "op_tail_ms":
		return w.clock
	}
	return ""
}
