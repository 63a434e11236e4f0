package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"dqemu/internal/abi"
	"dqemu/internal/core"
	"dqemu/internal/image"
)

// simLimitNs is the virtual-time limit of every simulated op; a failed op
// is charged it in virt_ms_gmean.
const simLimitNs = 5_000_000_000

// simSlot is one op of a compute or sharing round: a program and the
// cluster it runs on.
type simSlot struct {
	key string
	im  *image.Image
	cfg core.Config
	ref reference
}

// simEnv runs rounds of simulated ops. Every round runs the same slots, so
// each op repeats many times in one invocation and must repeat exactly.
type simEnv struct {
	slots []*simSlot
}

func simConfig(slaves int, full bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Slaves = slaves
	cfg.Forwarding, cfg.Splitting, cfg.HintSched = full, full, full
	cfg.MaxTimeNs = simLimitNs
	return cfg
}

// setupCompute draws the compute round: the Fig. 5/7 kernels on a single
// node and on four slaves, with the paper's optimizations off.
func setupCompute(seed int64, refs map[string]reference, rec *recorder) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	var progs []prog
	var cfgs []core.Config
	for _, slaves := range []int{0, 4} {
		for _, f := range []family{piFam, blackscholesFam, swaptionsFam, x264Fam} {
			progs = append(progs, pick(rng, f, max(slaves, 1)))
			cfgs = append(cfgs, simConfig(slaves, false))
		}
	}
	return newSimEnv(progs, cfgs, refs, rec)
}

// setupSharing draws the sharing round: kernels with real coherence
// traffic on four slaves under the paper's full configuration.
func setupSharing(seed int64, refs map[string]reference, rec *recorder) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	var progs []prog
	var cfgs []core.Config
	for _, f := range []family{fluidFam, cannealFam, dedupFam, streamcluster1024Fam, streamcluster2048Fam, falseshareFam} {
		progs = append(progs, pick(rng, f, 4))
		cfgs = append(cfgs, simConfig(4, true))
	}
	return newSimEnv(progs, cfgs, refs, rec)
}

func newSimEnv(progs []prog, cfgs []core.Config, refs map[string]reference, rec *recorder) (*simEnv, error) {
	e := &simEnv{}
	for i, p := range progs {
		ref, err := lookupRef(refs, p.key)
		if err != nil {
			return nil, err
		}
		end := rec.start(0, 0, "grt.build")
		im, err := p.build()
		end()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.key, err)
		}
		e.slots = append(e.slots, &simSlot{key: p.key, im: im, cfg: cfgs[i], ref: ref})
	}
	return e, nil
}

func (e *simEnv) close() {}

// simCounts are the per-layer counts of one simulated run, all from
// core.Result. They depend only on the program and the configuration.
type simCounts struct {
	ExecInsns, Tier3Insns, SuperblockInsns, TranslatedInsns, JumpHits, JumpMisses int64
	TranslateNs                                                                   int64
	PageFaults, PageWaitNs                                                        int64
	Invalidates, Fetches, Retries, Queued, Splits, Pushes, FwdHits, FwdWasted     int64
	Msgs, Bytes, BusyTxNs                                                         int64
	BodyBytes, RawBytes, DeltaPages, FullPages, DeltaMisses, Resends              int64
	FaultNs, SyscallNs, Migrations, GlobalSys, FutexCalls                         int64
}

func countsOf(r *core.Result) simCounts {
	c := simCounts{
		Invalidates: int64(r.Dir.Invalidates), Fetches: int64(r.Dir.Fetches), Retries: int64(r.Dir.Retries),
		Queued: int64(r.Dir.Queued), Splits: int64(r.Dir.Splits), Pushes: int64(r.Dir.Pushes),
		FwdHits: int64(r.Dir.ForwardHits), FwdWasted: int64(r.Dir.ForwardWasted),
		Msgs: int64(r.Net.Msgs), Bytes: int64(r.Net.Bytes), BusyTxNs: r.Net.BusyTxNs,
		BodyBytes: int64(r.Wire.BodyBytes), RawBytes: int64(r.Wire.RawBytes),
		DeltaPages: int64(r.Wire.DeltaPages), FullPages: int64(r.Wire.FullPages),
		DeltaMisses: int64(r.Wire.DeltaMisses), Resends: int64(r.Wire.Resends),
		Migrations: int64(r.Migrations), GlobalSys: int64(r.OS.Global), FutexCalls: int64(r.OS.ByNum[abi.SysFutex]),
	}
	for _, n := range r.Nodes {
		s := n.Engine
		c.ExecInsns += int64(s.ExecInsns)
		c.Tier3Insns += int64(s.Tier3Insns)
		c.SuperblockInsns += int64(s.SuperblockInsns)
		c.TranslatedInsns += int64(s.TranslatedInsns)
		c.JumpHits += int64(s.JumpCacheHits)
		c.JumpMisses += int64(s.JumpCacheMisses)
		c.TranslateNs += s.TranslateNs
		c.PageFaults += int64(n.PageFaults)
		c.PageWaitNs += n.PageWaitNs
	}
	for _, t := range r.Threads {
		c.FaultNs += t.FaultNs
		c.SyscallNs += t.SyscallNs
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	a, b := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() + b.Field(i).Int())
	}
}

// simOutcome is one finished simulated op.
type simOutcome struct {
	dur       time.Duration
	err       error // run error: deadlock, limit, ...
	wrong     error // output differs from the reference
	timeNs    int64
	counts    simCounts
	dirWaitNs int64 // fault.dir_wait_ns p50 (traced runs only)
	xferNs    int64 // fault.transfer_ns p50 (traced runs only)
	digest    [32]byte
}

func (o *simOutcome) passed() bool { return o.err == nil && o.wrong == nil }

// runOp runs one slot; metrics turns on Config.Metrics for the traced run's
// fault-phase histograms.
func (e *simEnv) runOp(s *simSlot, rec *recorder, op int64, metrics bool) simOutcome {
	defer rec.start(1, op, "op")()
	cfg := s.cfg
	cfg.Metrics = metrics
	t0 := time.Now()
	end := rec.start(1, op, "core.new_cluster")
	cl, err := core.NewCluster(s.im, cfg)
	end()
	var res *core.Result
	if err == nil {
		end = rec.start(1, op, "core.run")
		res, err = cl.Run()
		end()
	}
	o := simOutcome{dur: time.Since(t0), err: err}
	if err != nil {
		o.digest = sha256.Sum256([]byte(err.Error()))
		return o
	}
	o.timeNs = res.TimeNs
	o.counts = countsOf(res)
	o.wrong = s.ref.check(res.ExitCode, res.Console)
	o.digest = sha256.Sum256([]byte(fmt.Sprintf("%d|%q|%d|%+v", res.ExitCode, res.Console, res.TimeNs, o.counts)))
	if res.Metrics != nil {
		o.dirWaitNs = res.Metrics.Histograms[core.MetricFaultDirWait].P50
		o.xferNs = res.Metrics.Histograms[core.MetricFaultTransfer].P50
	}
	return o
}

// run repeats the round until d has passed (at least once). Latency covers
// passing ops: failures here are deterministic and show in pass_frac,
// sim_minsn_per_s and virt_ms_gmean instead.
func (e *simEnv) run(d time.Duration, rec *recorder) (*measurement, error) {
	m := newMeasurement()
	digests := make([][32]byte, len(e.slots))
	var first []simOutcome
	start := time.Now()
	var op int64
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		var w window
		for i, s := range e.slots {
			op++
			o := e.runOp(s, rec, op, rec != nil)
			if round == 0 {
				digests[i] = o.digest
				first = append(first, o)
				m.virtMs = append(m.virtMs, virtMs(o.passed(), o.timeNs, s.cfg.MaxTimeNs))
			} else if o.digest != digests[i] && o.wrong == nil {
				o.wrong = fmt.Errorf("%s: result differs from the first run of this op in the invocation", s.key)
			}
			m.attempted++
			w.seconds += o.dur.Seconds()
			switch {
			case o.wrong != nil:
				m.fail("wrong: "+o.wrong.Error(), true)
			case o.err != nil:
				m.fail(s.key+": "+failReason(o.err), false)
			default:
				w.passed++
				w.insns += uint64(o.counts.ExecInsns)
				m.latMs = append(m.latMs, float64(o.dur)/1e6)
			}
		}
		m.windows = append(m.windows, w)
		m.rssMB = append(m.rssMB, rssMB())
	}
	if rec != nil {
		m.layers = simLayers(first)
	}
	return m, nil
}

// failReason shortens a run error to its kind for the failure tally.
func failReason(err error) string {
	s := err.Error()
	if strings.Contains(s, "deadlock") {
		return "deadlock"
	}
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}

// simLayers derives the per-layer metrics from one round of the traced run.
func simLayers(round []simOutcome) map[string]float64 {
	var c simCounts
	var dirWait, xfer []float64
	for _, o := range round {
		c.add(o.counts)
		if o.dirWaitNs > 0 {
			dirWait = append(dirWait, float64(o.dirWaitNs)/1e3)
		}
		if o.xferNs > 0 {
			xfer = append(xfer, float64(o.xferNs)/1e3)
		}
	}
	return map[string]float64{
		"tcg.exec_minsn":               float64(c.ExecInsns) / 1e6,
		"tcg.tier3_insn_frac":          ratio(c.Tier3Insns, c.ExecInsns),
		"tcg.superblock_insn_frac":     ratio(c.SuperblockInsns, c.ExecInsns),
		"tcg.jump_cache_hit_frac":      ratio(c.JumpHits, c.JumpHits+c.JumpMisses),
		"tcg.translated_kinsn":         float64(c.TranslatedInsns) / 1e3,
		"tcg.translate_virt_ms":        float64(c.TranslateNs) / 1e6,
		"dsm.page_faults":              float64(c.PageFaults),
		"dsm.page_wait_virt_ms":        float64(c.PageWaitNs) / 1e6,
		"dsm.invalidates":              float64(c.Invalidates),
		"dsm.fetches":                  float64(c.Fetches),
		"dsm.retries":                  float64(c.Retries),
		"dsm.queued":                   float64(c.Queued),
		"dsm.splits":                   float64(c.Splits),
		"dsm.pushes":                   float64(c.Pushes),
		"dsm.forward_hit_frac":         ratio(c.FwdHits, c.FwdHits+c.FwdWasted),
		"dsm.fault_dir_wait_p50_us":    median(dirWait),
		"netsim.msgs":                  float64(c.Msgs),
		"netsim.kbytes":                float64(c.Bytes) / 1e3,
		"netsim.busy_tx_virt_ms":       float64(c.BusyTxNs) / 1e6,
		"netsim.fault_transfer_p50_us": median(xfer),
		"proto.body_raw_frac":          ratio(c.BodyBytes, c.RawBytes),
		"proto.delta_pages":            float64(c.DeltaPages),
		"proto.full_pages":             float64(c.FullPages),
		"proto.delta_misses":           float64(c.DeltaMisses),
		"proto.resends":                float64(c.Resends),
		"core.fault_virt_ms":           float64(c.FaultNs) / 1e6,
		"core.syscall_virt_ms":         float64(c.SyscallNs) / 1e6,
		"core.migrations":              float64(c.Migrations),
		"guestos.global_syscalls":      float64(c.GlobalSys),
		"guestos.futex_waits":          float64(c.FutexCalls),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
