package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/live"
)

const (
	liveSlaves = 2
	// liveTimeout bounds one live op; a failed op counts at this latency.
	liveTimeout = 10 * time.Second
)

// liveSlot is one op of the live round. The simulated twin of the same
// program on the same cluster shape gives the op its virtual time and its
// guest instruction count, since live slaves report neither.
type liveSlot struct {
	key    string
	im     *image.Image
	ref    reference
	virtNs int64
	insns  uint64
}

type liveEnv struct {
	slots []*liveSlot
}

// setupLive draws the live round, pi and fluidanimate on a two-slave
// loopback TCP cluster, and runs each program's simulated twin.
func setupLive(seed int64, refs map[string]reference, rec *recorder) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &liveEnv{}
	for _, f := range []family{livePiFam, liveFluidFam} {
		p := pick(rng, f, liveSlaves)
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
		end = rec.start(0, 0, "core.run")
		res, err := core.Run(im, simConfig(liveSlaves, false))
		end()
		if err != nil {
			return nil, fmt.Errorf("simulated twin of %s: %w", p.key, err)
		}
		if err := ref.check(res.ExitCode, res.Console); err != nil {
			return nil, fmt.Errorf("simulated twin of %s: %w", p.key, err)
		}
		s := &liveSlot{key: p.key, im: im, ref: ref, virtNs: res.TimeNs}
		for _, n := range res.Nodes {
			s.insns += n.Engine.ExecInsns
		}
		e.slots = append(e.slots, s)
	}
	return e, nil
}

func (e *liveEnv) close() {}

// runOp boots a loopback cluster, runs the program from boot to exit, and
// waits for every slave to leave.
func (e *liveEnv) runOp(s *liveSlot, rec *recorder, op int64) (time.Duration, *live.Result, error) {
	defer rec.start(1, op, "op")()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, fmt.Errorf("listen: %w", err)
	}
	addr := ln.Addr().String()
	slaveErr := make(chan error, liveSlaves)
	for i := 0; i < liveSlaves; i++ {
		go func() { slaveErr <- live.RunSlave(addr) }()
	}
	end := rec.start(1, op, "live.run_master")
	t0 := time.Now()
	res, err := live.RunMaster(ln, s.im, live.Config{Slaves: liveSlaves, Timeout: liveTimeout})
	dur := time.Since(t0)
	end()
	// Closing the listener fails the handshake of a slave still parked in
	// the accept backlog after a failed boot, so the wait below ends.
	ln.Close()
	for i := 0; i < liveSlaves; i++ {
		if serr := <-slaveErr; serr != nil && err == nil {
			err = fmt.Errorf("slave: %w", serr)
		}
	}
	return dur, res, err
}

// run is a closed loop with one client: each op starts when the previous
// one has ended. A failed op counts at the live timeout.
func (e *liveEnv) run(d time.Duration, rec *recorder) (*measurement, error) {
	m := newMeasurement()
	var masterMinsn []float64
	start := time.Now()
	var op int64
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		var w window
		for _, s := range e.slots {
			op++
			dur, res, err := e.runOp(s, rec, op)
			m.attempted++
			w.seconds += dur.Seconds()
			var wrong error
			if err == nil {
				wrong = s.ref.check(res.ExitCode, res.Console)
			}
			passed := err == nil && wrong == nil
			m.virtMs = append(m.virtMs, virtMs(passed, s.virtNs, simLimitNs))
			switch {
			case wrong != nil:
				m.fail(s.key+": wrong: "+wrong.Error(), true)
				m.latMs = append(m.latMs, float64(liveTimeout)/1e6)
			case err != nil:
				m.fail(s.key+": "+failReason(err), false)
				m.latMs = append(m.latMs, float64(liveTimeout)/1e6)
			default:
				w.passed++
				w.insns += s.insns
				m.latMs = append(m.latMs, float64(dur)/1e6)
				masterMinsn = append(masterMinsn, float64(res.MasterInsns)/1e6)
			}
		}
		m.windows = append(m.windows, w)
		m.rssMB = append(m.rssMB, rssMB())
	}
	if rec != nil {
		m.layers = map[string]float64{
			"live.run_ms":       median(rec.durationsMs("live.run_master")),
			"live.master_minsn": median(masterMinsn),
		}
	}
	return m, nil
}
