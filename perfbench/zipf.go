package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"bootes/internal/fleet"
	"bootes/internal/plancache"
	"bootes/internal/ring"
)

// serve-zipf: a 2-node in-process fleet (as `loadgen -spawn` builds it, with
// replicas=2) under an open loop at a fixed rate. Most requests draw from a
// warmed hot set with Zipf popularity; every tenth is a never-seen matrix,
// so the cache hit share stays constant through the run.
const (
	zipfNodes     = 2
	zipfHot       = 48
	zipfRows      = 1008 // hot matrices, 960..1008 rows: below 1024, so the gate picks k=16
	zipfColdRows  = 496  // cold matrices, 448..496 rows (k=8): each pipeline run holds its node's connection briefly
	zipfRowNNZ    = 24
	zipfColdEvery = 10   // one request in ten is a never-seen matrix
	zipfRate      = 80.0 // requests/s: p50 jumps at 300–360/s on 2 idle cores, and at 160/s on a busy host
	zipfS         = 1.1  // Zipf exponent of hot-matrix popularity
	zipfChecked   = 8    // hot inputs re-planned locally after the run
)

// zipfFleet is one serve-zipf set-up.
type zipfFleet struct {
	dir      string
	cluster  *fleet.Cluster
	urls     []string
	client   *http.Client
	inputs   []servedMatrix // the hot set first, then one per cold request
	arrivals []arrival
	book     *permBook
}

func runZipf(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	z, err := setUp(cfg, rep, func() (*zipfFleet, error) { return setupZipf(ctx, cfg, rep) }, (*zipfFleet).close)
	if err != nil {
		return nil, err
	}
	defer z.close()

	if cfg.trace {
		tr := newTracer(true)
		ls, err := z.traceRun(ctx, rep, tr)
		if err != nil {
			return nil, err
		}
		if err := traceQueuePhase(ctx, cfg, rep, tr); err != nil {
			return nil, err
		}
		spans, cost := tr.overhead()
		rep.metrics["trace.spans"] = float64(spans)
		rep.metrics["trace.overhead_frac"] = cost.Seconds() / ls.elapsed.Seconds()
		setLayers(rep)
		rep.notes["spans_file"] = spansPath(cfg)
		return rep, tr.write(spansPath(cfg))
	}

	outs, ls, err := z.drive(ctx, rep, false)
	if err != nil {
		return nil, err
	}
	latencyMetrics(rep, outs, z.inputs, func(i int) int { return z.arrivals[i].item }, ls)
	if err := crossCheck(ctx, rep, z.book, z.inputs, stride(zipfHot, zipfChecked)); err != nil {
		return nil, err
	}
	return rep, servedTraffic(rep, z.book, z.inputs, stride(zipfHot, zipfHot))
}

// drive runs the open loop.
func (z *zipfFleet) drive(ctx context.Context, rep *report, trace bool) ([]outcome, loadStats, error) {
	outs := make([]outcome, len(z.arrivals))
	ls := openLoop(ctx, z.arrivals, func(i int, due time.Time) {
		outs[i] = z.fire(ctx, rep, i, due, trace)
	})
	loopNotes(rep, zipfRate, ls)
	return outs, ls, ctx.Err()
}

// traceRun drives the open loop with spans and sets the serving layers'
// metrics: /metrics deltas, routing, and the storage layers' functions.
func (z *zipfFleet) traceRun(ctx context.Context, rep *report, tr *tracer) (loadStats, error) {
	before, err := scrape(ctx, z.client, z.urls)
	if err != nil {
		return loadStats{}, err
	}
	outs, ls, err := z.drive(ctx, rep, true)
	if err != nil {
		return ls, err
	}
	after, err := scrape(ctx, z.client, z.urls)
	if err != nil {
		return ls, err
	}
	for i, o := range outs {
		requestSpans(tr, i, o)
	}
	serveLayers(rep, before, after, outs, ls)
	z.fleetLayers(rep, before, after, outs)
	return ls, traceStorage(z.dir, tr, rep, z.inputs, z.book, stride(len(z.inputs), 64))
}

// servePhaseSeconds is the length of the serve-zipf phase a traced
// plan-dense run appends (see traceServingPhases).
const servePhaseSeconds = 8

// traceServingPhases runs short serve-zipf and serve-async phases inside a
// traced plan run, so the serving layers (plancache, planserve, fleet,
// planqueue, sparse decode, the client) keep their per-layer metrics although
// neither serving workload is in BENCHMARK.json: on the shared 2-core host
// their tail latencies moved by more than any bound allows from one minute to
// the next.
func traceServingPhases(ctx context.Context, cfg config, rep *report, tr *tracer) error {
	cfg.seconds = servePhaseSeconds
	z, err := setupZipf(ctx, cfg, rep)
	if err != nil {
		return fmt.Errorf("serve phase set-up: %w", err)
	}
	defer z.close()
	if _, err := z.traceRun(ctx, rep, tr); err != nil {
		return err
	}
	return traceQueuePhase(ctx, cfg, rep, tr)
}

// setupZipf launches the fleet, generates the inputs and the schedule, and
// warms the hot set (one plan per hot matrix, through alternating nodes).
func setupZipf(ctx context.Context, cfg config, rep *report) (*zipfFleet, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	cl, err := fleet.LaunchCluster(zipfNodes, fleet.ClusterOptions{
		Plan: planFunc(), Dir: dir, Replicas: 2, Seed: planSeed,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	z := &zipfFleet{dir: dir, cluster: cl, urls: cl.URLs(), client: newClient(1), book: newPermBook()}
	// The inputs: the hot set, then one never-seen matrix per cold request,
	// all drawn from the serving archetypes in turn.
	n := int(zipfRate * cfg.seconds)
	shape := func(i int) matrixSpec {
		rows := zipfRows
		if i >= zipfHot {
			rows = zipfColdRows
		}
		return matrixSpec{serveArchetypes[i%len(serveArchetypes)], rows - 16*(i%4), zipfRowNNZ, 16}
	}
	if z.inputs, err = servedMatrices(zipfHot+n/zipfColdEvery, cfg.seed, cfg.scale, shape); err != nil {
		z.close()
		return nil, err
	}
	// Every zipfColdEvery-th request is cold. Cold requests alternate between
	// the nodes, so two pipeline runs rarely contend for the cores by
	// coincidence of the draw. A hot request draws its matrix by Zipf
	// popularity and its node uniformly.
	rng := rand.New(rand.NewSource(mix(cfg.seed, -1)))
	zipf := rand.NewZipf(rng, zipfS, 1, zipfHot-1)
	for i := 0; i < n; i++ {
		a := arrival{due: time.Duration(float64(i) / zipfRate * float64(time.Second)), node: rng.Intn(zipfNodes)}
		if i%zipfColdEvery == zipfColdEvery-1 {
			a.node = (i / zipfColdEvery) % zipfNodes
			a.item = zipfHot + i/zipfColdEvery
		} else {
			a.item = int(zipf.Uint64())
		}
		z.arrivals = append(z.arrivals, a)
	}
	warm := make([]bool, zipfHot)
	forEach(zipfHot, func(i int) {
		x := do(ctx, z.client, http.MethodPost, z.urls[i%zipfNodes]+"/v1/plan?perm=1", z.inputs[i].body, false)
		var pb planBody
		if x.err != nil || x.status != http.StatusOK || decodeJSON(x.body, &pb) != nil || pb.Degraded {
			return
		}
		checkServed(rep, z.book, i, z.inputs[i], &pb)
		warm[i] = true
	})
	for i, ok := range warm {
		if !ok {
			z.close()
			return nil, fmt.Errorf("warming hot matrix %d failed", i)
		}
	}
	return z, nil
}

// fire sends request i and checks its response.
func (z *zipfFleet) fire(ctx context.Context, rep *report, i int, due time.Time, trace bool) outcome {
	a := z.arrivals[i]
	in := z.inputs[a.item]
	x := do(ctx, z.client, http.MethodPost, z.urls[a.node]+"/v1/plan?perm=1", in.body, trace)
	o := outcome{due: due, sent: x.sent, gotConn: x.gotConn, ack: x.done, done: x.done}
	var pb planBody
	if x.err != nil || x.status != http.StatusOK || decodeJSON(x.body, &pb) != nil || pb.Degraded {
		rep.op(false)
		return o
	}
	rep.op(true)
	checkServed(rep, z.book, a.item, in, &pb)
	o.ok, o.cached = true, pb.Cached
	return o
}

// fleetLayers sets the fleet and routing metrics of a traced run: the share
// of requests forwarded, hedges fired, the forward hop's cost on cache hits,
// and the hit ratio in each half of the run.
func (z *zipfFleet) fleetLayers(rep *report, before, after series, outs []outcome) {
	m := rep.metrics
	m["fleet.forward_frac"] = delta(before, after, "bootes_fleet_forwards_total") / float64(len(outs))
	m["fleet.hedges"] = delta(before, after, "bootes_fleet_hedges_total")
	r, err := ring.New(z.urls, 0)
	if err != nil {
		rep.reject("building the ring: %v", err)
		return
	}
	owner := map[int]string{}
	var viaOwner, viaPeer []float64
	var hits, oks [2]int
	half := len(outs) / 2
	for i, o := range outs {
		if !o.ok {
			continue
		}
		h := 0
		if i >= half {
			h = 1
		}
		oks[h]++
		if !o.cached {
			continue
		}
		hits[h]++
		item := z.arrivals[i].item
		if _, ok := owner[item]; !ok {
			owner[item] = r.Replicas(plancache.KeyCSR(z.inputs[item].m), 1)[0]
		}
		d := o.ack.Sub(o.sent).Seconds()
		if z.urls[z.arrivals[i].node] == owner[item] {
			viaOwner = append(viaOwner, d)
		} else {
			viaPeer = append(viaPeer, d)
		}
	}
	m["fleet.hop_s"] = median(viaPeer) - median(viaOwner)
	if oks[0] > 0 && oks[1] > 0 {
		m["plancache.hit_ratio_h1"] = float64(hits[0]) / float64(oks[0])
		m["plancache.hit_ratio_h2"] = float64(hits[1]) / float64(oks[1])
	}
}

// close stops the fleet and removes its state.
func (z *zipfFleet) close() {
	z.client.CloseIdleConnections()
	z.cluster.Close()
	os.RemoveAll(z.dir)
}
