package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"dqemu/internal/server"
)

const (
	svcClients = 2 // closed-loop clients, one tenant each
	// svcQueueLen is how many jobs each client's seeded sequence holds, 30
	// blocks of 72; a client that runs out starts it again. A client that
	// gets through more than 21 blocks reuses variants.
	svcQueueLen = 2160
	// svcVirtPrefix is how many jobs at the head of each client's sequence
	// virt_ms_gmean covers, so that it names the same jobs on every run of
	// a seed: one whole block, the same work for every seed, and one job
	// more, which the seed picks.
	svcVirtPrefix = 73
	// svcWindow is how many consecutive job completions make one
	// throughput window.
	svcWindow = 50
	// svcThink is each client's think time between jobs. It keeps the
	// daemon below saturation, as a real service runs, so throughput is
	// not set by how much of the two CPUs other tenants of the host leave.
	svcThink = 20 * time.Millisecond
	// svcJobTimeout bounds one job; a failed job counts at this latency.
	svcJobTimeout = 10 * time.Second
)

type svcJob struct {
	key  string
	body []byte
	ref  reference
}

// serviceEnv is an in-process dqemud: server.New behind its HTTP handler on
// a loopback listener, driven through HTTP by closed-loop clients.
type serviceEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	seqs   [svcClients][]svcJob
}

// setupService draws each client's job sequence and boots the daemon.
// Sequences are built from blocks of 72 jobs with a fixed make-up in
// a seeded order: every fixed source four times and every variant template
// three times on each cluster size (0, 1, 2 slaves), one of each such group
// with metrics. So every seed offers the daemon the same mix of work.
func setupService(seed int64, refs map[string]reference, rec *recorder) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	fixed := serviceFixed()
	// Variant indices per template, in a seeded order, split between the
	// clients so that no variant repeats within a run.
	var pool [svcClients][4][]int
	for t := 0; t < 4; t++ {
		var idx []int
		for i := t; i < serviceVariants; i += 4 {
			idx = append(idx, i)
		}
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for c := 0; c < svcClients; c++ {
			pool[c][t] = idx[c*len(idx)/svcClients : (c+1)*len(idx)/svcClients]
		}
	}
	e := &serviceEnv{}
	for c := 0; c < svcClients; c++ {
		var next [4]int
		for len(e.seqs[c]) < svcQueueLen {
			var block []server.JobRequest
			var keys []string
			add := func(p srcProg, slaves int, metrics bool) {
				block = append(block, server.JobRequest{
					Name: p.name, Source: p.src, Slaves: slaves,
					TimeoutMs: svcJobTimeout.Milliseconds(), Metrics: metrics,
				})
				keys = append(keys, p.key)
			}
			for slaves := 0; slaves < 3; slaves++ {
				for _, f := range fixed {
					for r := 0; r < 4; r++ {
						add(f, slaves, r == 0)
					}
				}
				for t := 0; t < 4; t++ {
					for r := 0; r < 3; r++ {
						mine := pool[c][t]
						add(serviceVariant(mine[next[t]%len(mine)]), slaves, r == 0)
						next[t]++
					}
				}
			}
			for _, i := range rng.Perm(len(block)) {
				ref, err := lookupRef(refs, keys[i])
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(block[i])
				if err != nil {
					return nil, err
				}
				e.seqs[c] = append(e.seqs[c], svcJob{key: keys[i], body: body, ref: ref})
			}
		}
	}

	end := rec.start(0, 0, "server.boot")
	defer end()
	e.srv = server.New(server.Options{
		Workers:  svcClients,
		Backends: map[string]server.Backend{"sim": &server.SimBackend{MaxVirtualNs: simLimitNs}},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Drain(0)
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{
		Timeout:   svcJobTimeout + 20*time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: svcClients},
	}
	resp, err := e.client.Get(e.base + "/v1/ping")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("daemon ping: %w", err)
	}
	return e, nil
}

func (e *serviceEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Drain(10 * time.Second)
	e.client.CloseIdleConnections()
}

// svcOp is one finished job as the client saw it.
type svcOp struct {
	seq      int // index in the client's sequence
	done     time.Time
	dur      time.Duration
	err      error
	wrong    error
	rejected bool
	st       server.JobStatus
	admit    time.Duration
	result   time.Duration
}

// do sends req and decodes a JSON answer into out; status is the HTTP code.
func (e *serviceEnv) do(method, path string, body []byte, tenant string, out any) (int, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// job posts one job, long-polls it to a terminal state and fetches its
// result: submit to result is one op.
func (e *serviceEnv) job(client int, seq int, j svcJob, rec *recorder, op int64) (o svcOp) {
	tenant := fmt.Sprintf("tenant-%d", client)
	track := client + 1
	o.seq = seq
	t0 := time.Now()
	defer func() { o.done = time.Now(); o.dur = o.done.Sub(t0) }()
	defer rec.start(track, op, "op")()

	end := rec.start(track, op, "server.submit")
	var st server.JobStatus
	code, err := e.do(http.MethodPost, "/v1/jobs", j.body, tenant, &st)
	end()
	o.admit = time.Since(t0)
	if err != nil {
		o.err, o.rejected = err, code == http.StatusTooManyRequests
		return o
	}
	end = rec.start(track, op, "server.wait")
	for !st.State.Terminal() && err == nil {
		_, err = e.do(http.MethodGet, fmt.Sprintf("/v1/jobs/%s?wait_ms=%d", st.ID, svcJobTimeout.Milliseconds()), nil, tenant, &st)
	}
	end()
	if err != nil {
		o.err = err
		return o
	}
	end = rec.start(track, op, "server.result")
	t1 := time.Now()
	var res server.JobResult
	_, err = e.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, tenant, &res)
	o.result = time.Since(t1)
	end()
	o.st = res.JobStatus
	switch {
	case err != nil:
		o.err = err
	case res.State != server.StateSucceeded:
		o.err = fmt.Errorf("job %s %s: %s", res.ID, res.State, res.Error)
	case res.ExitCode == nil:
		o.wrong = fmt.Errorf("job %s: no exit code", res.ID)
	default:
		if err := j.ref.check(*res.ExitCode, res.Console); err != nil {
			o.wrong = fmt.Errorf("%s: %w", j.key, err)
		}
	}
	return o
}

// run drives the daemon with closed-loop clients until d has passed; a
// client sends its next job svcThink after the previous one ended.
// Throughput is counted over windows of svcWindow completions.
func (e *serviceEnv) run(d time.Duration, rec *recorder) (*measurement, error) {
	start := time.Now()
	var mu sync.Mutex
	var ops []svcOp
	var rss []float64
	var opID int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; seq == 0 || time.Since(start) < d; seq++ {
				mu.Lock()
				opID++
				op := opID
				mu.Unlock()
				o := e.job(c, seq, e.seqs[c][seq%len(e.seqs[c])], rec, op)
				mu.Lock()
				ops = append(ops, o)
				if len(ops)%svcWindow == 0 {
					rss = append(rss, rssMB())
				}
				mu.Unlock()
				time.Sleep(svcThink)
			}
		}(c)
	}
	wg.Wait()

	m := newMeasurement()
	m.rssMB = rss
	sort.Slice(ops, func(i, j int) bool { return ops[i].done.Before(ops[j].done) })
	var w window
	last := start
	for i, o := range ops {
		if o.err == nil && o.wrong == nil {
			w.passed++
			w.insns += o.st.GuestInsns
		}
		if (i+1)%svcWindow == 0 {
			w.seconds = o.done.Sub(last).Seconds()
			m.windows = append(m.windows, w)
			w, last = window{}, o.done
		}
	}
	var admit, queue, run, result []float64
	rejected := 0
	var prefixInsns uint64
	for _, o := range ops {
		m.attempted++
		passed := o.err == nil && o.wrong == nil
		if o.seq < svcVirtPrefix {
			m.virtMs = append(m.virtMs, virtMs(passed, o.st.TimeNs, simLimitNs))
			if passed {
				prefixInsns += o.st.GuestInsns
			}
		}
		switch {
		case o.wrong != nil:
			m.fail("wrong: "+o.wrong.Error(), true)
		case o.err != nil:
			m.fail(failReason(o.err), false)
		}
		if o.rejected {
			rejected++
		}
		if !passed {
			m.latMs = append(m.latMs, float64(svcJobTimeout)/1e6)
			continue
		}
		m.latMs = append(m.latMs, float64(o.dur)/1e6)
		admit = append(admit, float64(o.admit)/1e6)
		queue = append(queue, float64(o.st.StartedAtNs-o.st.QueuedAtNs)/1e6)
		run = append(run, float64(o.st.WallNs)/1e6)
		result = append(result, float64(o.result)/1e6)
	}
	if rec != nil {
		m.layers = map[string]float64{
			"tcg.exec_minsn":       float64(prefixInsns) / 1e6,
			"server.admit_ms":      median(admit),
			"server.queue_wait_ms": median(queue),
			"server.run_ms":        median(run),
			"server.result_ms":     median(result),
			"server.rejected":      float64(rejected),
		}
	}
	return m, nil
}
