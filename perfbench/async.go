package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
)

// serve-async: one node assembled the way cmd/bootesd assembles it with
// -cache and -queue-dir, under an open loop of async submissions of
// never-seen small matrices; each job is polled to completion.
const (
	asyncRate    = 50.0 // submissions/s: 1000 per 20 s run
	asyncPoll    = 10 * time.Millisecond
	asyncWarm    = 4
	asyncRowNNZ  = 16
	asyncChecked = 128 // jobs re-planned locally after the run
)

// asyncNode is one serve-async set-up.
type asyncNode struct {
	dir      string
	cache    *plancache.Cache
	queue    *planqueue.Queue
	srv      *planserve.Server
	http     *http.Server
	served   chan struct{} // closed when the HTTP server's Serve returns
	url      string
	client   *http.Client   // submissions: one connection
	poller   *http.Client   // job polls: the other connection
	inputs   []servedMatrix // one per scheduled job
	arrivals []arrival
	book     *permBook
}

func runAsync(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	nd, err := setUp(cfg, rep, func() (*asyncNode, error) { return setupAsync(ctx, cfg, rep) }, (*asyncNode).close)
	if err != nil {
		return nil, err
	}
	defer nd.close()

	if !cfg.trace {
		outs, ls, _, err := nd.drive(ctx, rep, false)
		if err != nil {
			return nil, err
		}
		loopNotes(rep, asyncRate, ls)
		rep.notes["poll_interval_s"] = asyncPoll.Seconds()
		latencyMetrics(rep, outs, nd.inputs, func(i int) int { return i }, ls)
		sample := stride(len(nd.inputs), asyncChecked)
		if err := crossCheck(ctx, rep, nd.book, nd.inputs, sample); err != nil {
			return nil, err
		}
		return rep, servedTraffic(rep, nd.book, nd.inputs, sample)
	}

	tr := newTracer(true)
	before, err := scrape(ctx, nd.client, []string{nd.url})
	if err != nil {
		return nil, err
	}
	outs, ls, qs, err := nd.drive(ctx, rep, true)
	if err != nil {
		return nil, err
	}
	loopNotes(rep, asyncRate, ls)
	rep.notes["poll_interval_s"] = asyncPoll.Seconds()
	after, err := scrape(ctx, nd.client, []string{nd.url})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		requestSpans(tr, i, o)
	}
	serveLayers(rep, before, after, outs, ls)
	queueLayers(rep, outs, qs)
	if err := nd.traceEnqueue(ctx, cfg, tr, rep); err != nil {
		return nil, err
	}
	if err := traceStorage(nd.dir, tr, rep, nd.inputs, nd.book, stride(len(nd.inputs), 64)); err != nil {
		return nil, err
	}
	spans, cost := tr.overhead()
	rep.metrics["trace.spans"] = float64(spans)
	rep.metrics["trace.overhead_frac"] = cost.Seconds() / ls.elapsed.Seconds()
	setLayers(rep)
	rep.notes["spans_file"] = spansPath(cfg)
	return rep, tr.write(spansPath(cfg))
}

// asyncPhaseSeconds is the length of the async phase of a traced serving
// run: 300 jobs, enough for one journal compaction (every 256 finished jobs
// by default).
const asyncPhaseSeconds = 6

// traceQueuePhase sets up a serve-async node, drives a short open loop of
// async jobs through it, and sets the planqueue per-layer metrics.
func traceQueuePhase(ctx context.Context, cfg config, rep *report, tr *tracer) error {
	cfg.seconds = asyncPhaseSeconds
	nd, err := setupAsync(ctx, cfg, rep)
	if err != nil {
		return fmt.Errorf("async phase set-up: %w", err)
	}
	defer nd.close()
	outs, _, qs, err := nd.drive(ctx, rep, true)
	if err != nil {
		return err
	}
	queueLayers(rep, outs, qs)
	return nd.traceEnqueue(ctx, cfg, tr, rep)
}

// drive runs the async open loop; a traced run also samples the queue's
// Stats while it lasts.
func (nd *asyncNode) drive(ctx context.Context, rep *report, trace bool) ([]outcome, loadStats, queueSample, error) {
	var sampler *queueSampler
	if trace {
		sampler = sampleQueue(nd.queue)
	}
	outs := make([]outcome, len(nd.arrivals))
	ls := openLoop(ctx, nd.arrivals, func(i int, due time.Time) {
		outs[i] = nd.fire(ctx, rep, i, due, trace)
	})
	var qs queueSample
	if sampler != nil {
		qs = sampler.stop()
	}
	return outs, ls, qs, ctx.Err()
}

// queueLayers sets the planqueue metrics from the sampled Stats and the
// client's poll counts.
func queueLayers(rep *report, outs []outcome, qs queueSample) {
	m := rep.metrics
	done, polls := 0, 0
	for _, o := range outs {
		if o.ok {
			done++
			polls += o.polls
		}
	}
	m["planqueue.depth_max"] = float64(qs.depthMax)
	m["planqueue.compactions"] = float64(qs.compactions)
	if done > 0 {
		m["planqueue.journal_bytes_per_job"] = float64(qs.journalGrowth) / float64(done)
		m["planqueue.polls_per_job"] = float64(polls) / float64(done)
	}
}

// setupAsync opens the cache and the queue, starts the server, generates
// the jobs' matrices and the schedule, and runs a few warm-up jobs.
func setupAsync(ctx context.Context, cfg config, rep *report) (*asyncNode, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	nd := &asyncNode{dir: dir, client: newClient(1), poller: newClient(1), book: newPermBook(), served: make(chan struct{})}
	if err := nd.start(); err != nil {
		close(nd.served)
		nd.close()
		return nil, err
	}
	// One never-seen matrix per scheduled job, plus asyncWarm more for the
	// warm-up, drawn from the serving archetypes in turn.
	n := int(asyncRate * cfg.seconds)
	inputs, err := servedMatrices(n+asyncWarm, cfg.seed, cfg.scale, asyncShape)
	if err != nil {
		nd.close()
		return nil, err
	}
	nd.inputs = inputs[:n]
	for i := 0; i < n; i++ {
		nd.arrivals = append(nd.arrivals, arrival{due: time.Duration(float64(i) / asyncRate * float64(time.Second)), item: i})
	}
	// Warm-up: a few unscheduled jobs go through the whole async path, which
	// pages in the workers and grows the journal.
	warm := make([]bool, asyncWarm)
	forEach(asyncWarm, func(i int) {
		warm[i] = nd.submit(ctx, rep, nil, -1, inputs[n+i], time.Now(), false).ok
	})
	for i, ok := range warm {
		if !ok {
			nd.close()
			return nil, fmt.Errorf("warm-up job %d failed", i)
		}
	}
	return nd, nil
}

// start assembles the node: plan cache, durable queue with its workers,
// planserve with the queue attached, and an HTTP server on a loopback port.
func (nd *asyncNode) start() error {
	var err error
	if nd.cache, err = plancache.Open(filepath.Join(nd.dir, "cache")); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	nd.queue, err = planqueue.Open(planqueue.Config{
		Dir:   filepath.Join(nd.dir, "queue"),
		Run:   planqueue.RunFunc(planFunc()),
		Cache: nd.cache,
		// One worker per core, as `bootesd -queue-workers <nproc>`: the
		// default (-max-inflight, 4) oversubscribes a 2-core host, and then
		// the ack path's latency is set by the Go scheduler's time slice.
		Workers:   runtime.GOMAXPROCS(0),
		MaxQueued: 1024,
		Metrics:   reg,
		Seed:      planSeed,
	})
	if err != nil {
		return err
	}
	nd.queue.Start()
	nd.srv, err = planserve.New(planserve.Config{
		Plan:              planFunc(),
		Cache:             nd.cache,
		Queue:             nd.queue,
		DefaultDeadline:   60 * time.Second,
		MaxRetries:        2,
		Breaker:           planserve.BreakerConfig{FailureThreshold: 5, Cooldown: 15 * time.Second},
		MaxUploadBytes:    256 << 20,
		UploadReadTimeout: 30 * time.Second,
		Seed:              planSeed,
		Metrics:           reg,
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	nd.url = "http://" + ln.Addr().String()
	nd.http = &http.Server{
		Handler:           nd.srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(nd.served)
		_ = nd.http.Serve(ln)
	}()
	return nil
}

// fire submits job i at its due time and polls it to completion.
func (nd *asyncNode) fire(ctx context.Context, rep *report, i int, due time.Time, trace bool) outcome {
	return nd.submit(ctx, rep, nd.book, i, nd.inputs[i], due, trace)
}

// submit posts one async job, then polls GET /v1/jobs/{id} every asyncPoll
// until it is done. book is nil for warm-up jobs, which are not counted.
func (nd *asyncNode) submit(ctx context.Context, rep *report, book *permBook, item int, in servedMatrix, due time.Time, trace bool) outcome {
	fail := func(o outcome) outcome {
		if book != nil {
			rep.op(false)
		}
		return o
	}
	x := do(ctx, nd.client, http.MethodPost, nd.url+"/v1/plan?async=1", in.body, trace)
	o := outcome{due: due, sent: x.sent, gotConn: x.gotConn, ack: x.done}
	var jb jobBody
	if x.err != nil || x.status != http.StatusAccepted || decodeJSON(x.body, &jb) != nil || jb.JobID == "" {
		return fail(o)
	}
	// Each job polls on its own phase of the interval (a low-discrepancy
	// sequence over the jobs), so the time to see done is not rounded to a
	// grid shared by every job, whose steps would make the percentiles jump.
	phase := math.Mod(float64(item+1)*0.6180339887498949, 1)
	next := x.done.Add(time.Duration(phase * float64(asyncPoll)))
	deadline := due.Add(requestTimeout)
	for {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fail(o)
		}
		px := do(ctx, nd.poller, http.MethodGet, nd.url+"/v1/jobs/"+jb.JobID+"?perm=1", nil, false)
		o.polls++
		var st jobBody
		if px.err != nil || px.status != http.StatusOK || decodeJSON(px.body, &st) != nil {
			return fail(o)
		}
		switch st.State {
		case string(planqueue.StateDone):
			if st.Plan == nil || st.Plan.Degraded {
				return fail(o)
			}
			o.done, o.ok = px.done, true
			if book != nil {
				rep.op(true)
				checkServed(rep, book, item, in, st.Plan)
			} else if !validPerm(st.Plan.Perm, in.m.Rows) {
				rep.reject("warm-up job: plan is not a permutation of %d rows", in.m.Rows)
			}
			return o
		case string(planqueue.StateDead):
			return fail(o)
		}
		next = next.Add(asyncPoll)
		if now := time.Now(); next.Before(now) {
			next = now
		}
	}
}

// asyncShape is the shape of job i's matrix: 300–600 rows.
func asyncShape(i int) matrixSpec {
	return matrixSpec{serveArchetypes[i%len(serveArchetypes)], 300 + (i*37)%300, asyncRowNNZ, 8}
}

// traceEnqueue times planqueue's Enqueue directly, on a scratch queue with
// no workers: the fsync'd journal append behind every 202.
func (nd *asyncNode) traceEnqueue(ctx context.Context, cfg config, tr *tracer, rep *report) error {
	q, err := planqueue.Open(planqueue.Config{
		Dir: filepath.Join(nd.dir, "layer-queue"),
		Run: planqueue.RunFunc(planFunc()),
	})
	if err != nil {
		return err
	}
	const jobs = 64
	inputs, err := servedMatrices(jobs, mix(cfg.seed, -2), cfg.scale, asyncShape)
	if err != nil {
		return err
	}
	var total time.Duration
	for i, in := range inputs {
		t0 := time.Now()
		_, _, err = q.Enqueue("bench", in.m, "perfbench")
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("planqueue enqueue: %w", err)
		}
		tr.record(0, "planqueue.Enqueue", fmt.Sprintf("enqueue-%d", i), t0, t1)
		total += t1.Sub(t0)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := q.Stop(sctx); err != nil {
		return err
	}
	rep.metrics["planqueue.enqueue_s"] = total.Seconds() / jobs
	return nil
}

// close drains and stops the node the way bootesd does on SIGTERM, then
// removes its state.
func (nd *asyncNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nd.client.CloseIdleConnections()
	nd.poller.CloseIdleConnections()
	if nd.srv != nil {
		_ = nd.srv.Shutdown(ctx)
	}
	if nd.queue != nil {
		_ = nd.queue.Stop(ctx)
	}
	if nd.http != nil {
		if err := nd.http.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			_ = nd.http.Close()
		}
	}
	<-nd.served
	os.RemoveAll(nd.dir)
}

// queueSampler polls the queue's public Stats while the run lasts.
type queueSampler struct {
	q      *planqueue.Queue
	quit   chan struct{}
	wg     sync.WaitGroup
	result queueSample
}

// queueSample is what the sampler saw: the deepest ready queue, the journal
// bytes appended (growth between samples; compaction shrinks are skipped),
// and the compactions during the run.
type queueSample struct {
	depthMax      int64
	journalGrowth int64
	compactions   int64
}

func sampleQueue(q *planqueue.Queue) *queueSampler {
	s := &queueSampler{q: q, quit: make(chan struct{})}
	first := q.Stats()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		prev := first
		for {
			select {
			case <-s.quit:
				last := q.Stats()
				s.observe(prev, last)
				s.result.compactions = last.Compactions - first.Compactions
				return
			case <-t.C:
				st := q.Stats()
				s.observe(prev, st)
				prev = st
			}
		}
	}()
	return s
}

func (s *queueSampler) observe(prev, st planqueue.Stats) {
	if d := st.Depth + st.Delayed; d > s.result.depthMax {
		s.result.depthMax = d
	}
	if g := st.JournalBytes - prev.JournalBytes; g > 0 {
		s.result.journalGrowth += g
	}
}

// stop ends sampling and returns what was seen.
func (s *queueSampler) stop() queueSample {
	close(s.quit)
	s.wg.Wait()
	return s.result
}
