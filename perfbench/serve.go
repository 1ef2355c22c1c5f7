package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bootes"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// planFunc is the production planning function, as cmd/bootesd assembles it
// with no model and the default similarity selector.
func planFunc() planserve.PlanFunc {
	return func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		opts := &bootes.Options{Seed: planSeed + int64(attempt)*0x9E3779B9}
		if dl, ok := ctx.Deadline(); ok {
			opts.Budget.MaxWallClock = time.Until(dl)
		}
		plan, err := bootes.PlanContext(ctx, m, opts)
		if err != nil {
			return nil, err
		}
		return &reorder.Result{
			Perm:           plan.Perm,
			Reordered:      plan.Reordered,
			Degraded:       plan.Degraded,
			DegradedReason: plan.DegradedReason,
			SimilarityMode: plan.SimilarityMode,
			AutoK:          plan.AutoK,
			PreprocessTime: time.Duration(plan.PreprocessSeconds * float64(time.Second)),
			FootprintBytes: plan.FootprintBytes,
			Extra:          map[string]float64{"k": float64(plan.K)},
		}, nil
	}
}

// scratchDir makes a fresh directory for one set-up's durable state.
func scratchDir(cfg config) (string, error) {
	parent := filepath.Join(cfg.out, "scratch")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, cfg.workload+"-")
}

// outcome is one served operation as the client saw it.
type outcome struct {
	ok      bool
	cached  bool
	due     time.Time
	sent    time.Time
	gotConn time.Time
	ack     time.Time // sync: the response; async: the 202
	done    time.Time // the plan is in hand
	polls   int
}

// permBook keeps the first permutation served for each input and checks
// that every later one is the same.
type permBook struct {
	mu     sync.Mutex
	first  map[int][]int32
	digest map[int]string
}

func newPermBook() *permBook {
	return &permBook{first: map[int][]int32{}, digest: map[int]string{}}
}

func (b *permBook) check(item int, perm []int32) bool {
	d := permDigest(perm)
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.digest[item]; ok {
		return prev == d
	}
	b.digest[item] = d
	b.first[item] = perm
	return true
}

func (b *permBook) get(item int) []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first[item]
}

// checkServed validates one served plan for input item and records the
// check's outcome.
func checkServed(rep *report, book *permBook, item int, in servedMatrix, pb *planBody) {
	switch {
	case !validPerm(pb.Perm, in.m.Rows):
		rep.reject("input %d: served plan is not a permutation of %d rows", item, in.m.Rows)
	case !book.check(item, pb.Perm):
		rep.reject("input %d: served a different permutation than before", item)
	}
}

// latencyMetrics sets the end-to-end latency and throughput metrics from
// the outcomes. Failed operations enter the percentiles as +Inf; throughput
// is the input nonzeros answered per second of the open loop's wall time.
func latencyMetrics(rep *report, outs []outcome, inputs []servedMatrix, items func(i int) int, ls loadStats) {
	lat := make([]float64, len(outs))
	ack := make([]float64, len(outs))
	var nnz int64
	for i, o := range outs {
		if !o.ok {
			lat[i], ack[i] = posInf, posInf
			continue
		}
		lat[i] = o.done.Sub(o.due).Seconds()
		ack[i] = o.ack.Sub(o.due).Seconds()
		nnz += inputs[items(i)].m.NNZ()
	}
	rep.metrics["lat_p50_s"] = percentile(lat, 0.50)
	rep.metrics["lat_p99_s"] = percentile(lat, 0.99)
	rep.metrics["ack_p50_s"] = percentile(ack, 0.50)
	rep.metrics["ack_p99_s"] = percentile(ack, 0.99)
	rep.metrics["nnz_per_s"] = float64(nnz) / ls.elapsed.Seconds()
	rep.notes["requests"] = len(outs)
}

// crossCheck re-plans a sample of served inputs with the library in this
// process and checks that the server returned the same permutation (plans of
// the exact tiers are bit-identical).
func crossCheck(ctx context.Context, rep *report, book *permBook, inputs []servedMatrix, sample []int) error {
	errs := make([]error, len(sample))
	forEach(len(sample), func(j int) {
		i := sample[j]
		p, err := bootes.PlanContext(ctx, inputs[i].m, &bootes.Options{Seed: planSeed})
		if err != nil {
			errs[j] = err
			return
		}
		if served := book.get(i); served != nil && exactClass(p.SimilarityMode) && permDigest(p.Perm) != permDigest(served) {
			rep.reject("input %d: served plan differs from the library's plan for the same matrix and seed", i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("re-planning a served input: %w", err)
		}
	}
	rep.notes["cross_checked"] = len(sample)
	return nil
}

// servedTraffic sets traffic_ratio from the plans served for the inputs in
// idx.
func servedTraffic(rep *report, book *permBook, inputs []servedMatrix, idx []int) error {
	items := make([]planItem, len(idx))
	perms := make([]sparse.Permutation, len(idx))
	for j, i := range idx {
		items[j] = planItem{name: fmt.Sprintf("input-%d", i), m: inputs[i].m}
		perms[j] = book.get(i)
	}
	ratios, err := trafficRatios(items, perms)
	if err != nil {
		return err
	}
	rep.metrics["traffic_ratio"] = geomean(ratios)
	return nil
}

// stride returns every n/k-th index of [0, n), at most k of them.
func stride(n, k int) []int {
	step := (n + k - 1) / k
	if step < 1 {
		step = 1
	}
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// traceStorage times the storage layers' public functions on the served
// inputs: sparse.ReadBinary on the request bodies, plancache.KeyCSR, and
// Put/Get on a scratch plan cache.
func traceStorage(dir string, tr *tracer, rep *report, inputs []servedMatrix, book *permBook, sample []int) error {
	cache, err := plancache.Open(filepath.Join(dir, "layer-cache"))
	if err != nil {
		return err
	}
	var decode, key, put, get time.Duration
	n := 0
	for _, i := range sample {
		perm := book.get(i)
		if perm == nil {
			continue
		}
		op := fmt.Sprintf("input-%d", i)
		t0 := time.Now()
		m, err := sparse.ReadBinary(bytes.NewReader(inputs[i].body))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decoding input %d: %w", i, err)
		}
		k := plancache.KeyCSR(m)
		t2 := time.Now()
		err = cache.Put(&plancache.Entry{Key: k, Perm: perm, Reordered: !sparse.Permutation(perm).IsIdentity()})
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("plancache put: %w", err)
		}
		_, ok := cache.Get(k)
		t4 := time.Now()
		if !ok {
			rep.reject("input %d: plan cache lost an entry it just stored", i)
		}
		tr.record(0, "sparse.ReadBinary", op, t0, t1)
		tr.record(0, "plancache.KeyCSR", op, t1, t2)
		tr.record(0, "plancache.Put", op, t2, t3)
		tr.record(0, "plancache.Get", op, t3, t4)
		decode += t1.Sub(t0)
		key += t2.Sub(t1)
		put += t3.Sub(t2)
		get += t4.Sub(t3)
		n++
	}
	if n == 0 {
		return nil
	}
	rep.metrics["sparse.decode_s"] = decode.Seconds() / float64(n)
	rep.metrics["plancache.key_s"] = key.Seconds() / float64(n)
	rep.metrics["plancache.put_s"] = put.Seconds() / float64(n)
	rep.metrics["plancache.get_s"] = get.Seconds() / float64(n)
	return nil
}

// serveLayers sets the per-layer metrics read from the servers' /metrics
// (before/after deltas) and from the client's outcomes.
func serveLayers(rep *report, before, after series, outs []outcome, ls loadStats) {
	m := rep.metrics
	hits := delta(before, after, "bootes_cache_hits_total")
	misses := delta(before, after, "bootes_cache_misses_total")
	if hits+misses > 0 {
		m["plancache.hit_ratio"] = hits / (hits + misses)
	}
	const okSeries = `bootes_serve_latency_seconds_%s{outcome="ok"}`
	count := delta(before, after, fmt.Sprintf(okSeries, "count"))
	var serverMean float64
	if count > 0 {
		serverMean = delta(before, after, fmt.Sprintf(okSeries, "sum")) / count
	}
	m["planserve.server_mean_s"] = serverMean
	var clientSum float64
	var okN int
	for _, o := range outs {
		if o.ok {
			clientSum += o.ack.Sub(o.sent).Seconds()
			okN++
		}
	}
	if okN > 0 {
		m["planserve.transport_s"] = clientSum/float64(okN) - serverMean
	}
	m["planserve.coalesced"] = delta(before, after, "bootes_serve_coalesced_total")
	m["planserve.shed"] = delta(before, after, "bootes_serve_shed_total") +
		delta(before, after, "bootes_serve_async_rejected_total")
	m["planserve.retries"] = delta(before, after, "bootes_serve_retries_total")
	m["client.lag_max_s"] = ls.lagMax.Seconds()
	m["client.backlog_max"] = float64(ls.backlogMax)
}

// requestSpans records one served operation: the request from its due time
// to the plan in hand, the wait for a connection, and the HTTP exchange.
func requestSpans(tr *tracer, i int, o outcome) {
	op := fmt.Sprintf("req-%d", i)
	end := o.done
	if end.IsZero() {
		end = o.ack
	}
	id := tr.record(0, "request", op, o.due, end)
	conn := o.gotConn
	if conn.IsZero() {
		conn = o.sent
	}
	tr.record(id, "client.wait", op, o.due, conn)
	tr.record(id, "http.exchange", op, conn, o.ack)
	if !o.done.IsZero() && o.done.After(o.ack) {
		tr.record(id, "job.poll", op, o.ack, o.done)
	}
}
