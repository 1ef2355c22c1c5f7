package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bootes"
	"bootes/internal/accel"
	"bootes/internal/core"
	"bootes/internal/lsh"
	"bootes/internal/obs"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// planSeed is the planner's own seed. The workload seed shapes the inputs
// only; the program always plans with the same options.
const planSeed = 1

// planItem is one input of a plan batch.
type planItem struct {
	name string
	m    *sparse.CSR
}

// runPlan is the plan-mid / plan-dense workload: a batch of cold
// bootes.PlanContext calls (default options, no cache), run back to back.
// With serving set, the traced run appends the serving phases.
func runPlan(ctx context.Context, cfg config, specs []matrixSpec, serving bool) (*report, error) {
	rep := newReport()
	items, err := setUp(cfg, rep, func() ([]planItem, error) {
		return setupPlanInputs(ctx, cfg, specs)
	}, func([]planItem) {})
	if err != nil {
		return nil, err
	}
	digests := openDigestStore(cfg)
	if cfg.trace {
		err = tracePlans(ctx, cfg, items, rep, digests, serving)
	} else {
		err = timePlans(ctx, cfg, items, rep, digests)
	}
	if err != nil {
		return nil, err
	}
	return rep, digests.save()
}

// setupPlanInputs generates the batch and runs one small warm-up plan, which
// pages in the planner's code and grows the heap before anything is timed.
func setupPlanInputs(ctx context.Context, cfg config, specs []matrixSpec) ([]planItem, error) {
	items := make([]planItem, len(specs))
	for i, s := range specs {
		items[i] = planItem{name: fmt.Sprintf("%02d-%s", i, s), m: s.generate(mix(cfg.seed, i), cfg.scale)}
	}
	warm := matrixSpec{workloads.ArchScrambledBlock, 512, 16, 8}.generate(mix(cfg.seed, len(specs)), 1)
	if _, err := bootes.PlanContext(ctx, warm, &bootes.Options{Seed: planSeed}); err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", err)
	}
	return items, nil
}

// planOnce runs one cold plan and checks its output. It returns nil for a
// failed operation (an error or a degraded plan).
func planOnce(ctx context.Context, it planItem, o *bootes.Options, rep *report, digests *digestStore) (*bootes.ReorderPlan, time.Duration) {
	t0 := time.Now()
	p, err := bootes.PlanContext(ctx, it.m, o)
	d := time.Since(t0)
	if err != nil || p.Degraded {
		rep.op(false)
		return nil, d
	}
	rep.op(true)
	checkPlan(rep, digests, it.name, it.m.Rows, p.Perm, p.SimilarityMode)
	return p, d
}

// checkPlan enforces the plan output checks: a bijection of the right
// length, and for exact-tier plans the same digest as every earlier plan of
// that input.
func checkPlan(rep *report, digests *digestStore, name string, rows int, perm []int32, mode string) {
	if !validPerm(perm, rows) {
		rep.reject("%s: plan is not a permutation of %d rows", name, rows)
		return
	}
	if exactClass(mode) && !digests.check(name, permDigest(perm)) {
		rep.reject("%s: exact-tier plan differs from an earlier plan of the same input", name)
	}
}

// timePlans runs whole passes over the batch until another pass would
// overrun the run length (at least one pass), then scores the plans'
// traffic outside the timed region.
func timePlans(ctx context.Context, cfg config, items []planItem, rep *report, digests *digestStore) error {
	o := &bootes.Options{Seed: planSeed}
	var (
		lat   []float64
		nnz   int64
		busy  time.Duration
		perms = make([]sparse.Permutation, len(items))
	)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	passes := 0
	for {
		passStart := time.Now()
		for i, it := range items {
			p, d := planOnce(ctx, it, o, rep, digests)
			if p == nil {
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, d.Seconds())
			nnz += it.m.NNZ()
			busy += d
			if perms[i] == nil {
				perms[i] = p.Perm
			}
		}
		passes++
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	rep.metrics["lat_p50_s"] = percentile(lat, 0.50)
	rep.metrics["lat_p99_s"] = percentile(lat, 0.99)
	// A library call answers with the plan itself: the acknowledgement is
	// the plan.
	rep.metrics["ack_p50_s"] = rep.metrics["lat_p50_s"]
	rep.metrics["ack_p99_s"] = rep.metrics["lat_p99_s"]
	rep.metrics["nnz_per_s"] = float64(nnz) / busy.Seconds()
	ratios, err := trafficRatios(items, perms)
	if err != nil {
		return err
	}
	rep.metrics["traffic_ratio"] = geomean(ratios)
	rep.notes["passes"] = passes
	rep.notes["plans"] = len(lat)
	rep.notes["batch"] = len(items)
	return nil
}

// trafficRatios scores each input's plan: accel.SimulateRowWise total
// off-chip bytes with the plan applied ÷ in original order. A missing plan
// scores 1 (nothing reordered).
func trafficRatios(items []planItem, perms []sparse.Permutation) ([]float64, error) {
	ratios := make([]float64, len(items))
	errs := make([]error, len(items))
	forEach(len(items), func(i int) {
		ratios[i], errs[i] = trafficRatio(items[i].m, perms[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traffic of %s: %w", items[i].name, err)
		}
	}
	return ratios, nil
}

// trafficRatio follows the paper's operand rule (B = A when square, Aᵀ
// otherwise; B is never reordered) with a shared cache of ~1/20 of B's bytes,
// so capacity misses exist and row order matters.
func trafficRatio(m *sparse.CSR, perm sparse.Permutation) (float64, error) {
	if perm == nil || perm.IsIdentity() {
		return 1, nil
	}
	b := m
	if m.Rows != m.Cols {
		b = sparse.Transpose(m)
	}
	cache := b.NNZ() * 12 / 20
	if cache < 2<<10 {
		cache = 2 << 10
	}
	acfg := accel.Config{Name: "perfbench", PEs: accel.GAMMA.PEs, CacheBytes: cache}
	base, err := accel.SimulateRowWise(acfg, m, b)
	if err != nil {
		return 0, err
	}
	ap, err := sparse.PermuteRows(m, perm)
	if err != nil {
		return 0, err
	}
	with, err := accel.SimulateRowWise(acfg, ap, b)
	if err != nil {
		return 0, err
	}
	return float64(with.Traffic.Total()) / float64(base.Traffic.Total()), nil
}

// forEach runs fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tracePlans is the traced run of a plan workload. Pass 1 plans the batch
// untraced (the overhead baseline); pass 2 plans it again with obs.WithTrace
// attached and a span per plan and stage; pass 3 times the layers' public
// functions one by one to read their work counters.
func tracePlans(ctx context.Context, cfg config, items []planItem, rep *report, digests *digestStore, serving bool) error {
	tr := newTracer(true)
	o := &bootes.Options{Seed: planSeed}
	n := float64(len(items))
	m := rep.metrics

	var plain time.Duration
	for _, it := range items {
		_, d := planOnce(ctx, it, o, rep, digests)
		plain += d
	}

	var wall time.Duration
	var allocs uint64
	stages := map[string]float64{}
	for _, it := range items {
		ot := obs.NewRegistry().NewTrace()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p, err := bootes.PlanContext(obs.WithTrace(ctx, ot), it.m, o)
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		wall += t1.Sub(t0)
		allocs += after.TotalAlloc - before.TotalAlloc
		if err != nil || p.Degraded {
			rep.op(false)
			continue
		}
		rep.op(true)
		checkPlan(rep, digests, it.name, it.m.Rows, p.Perm, p.SimilarityMode)
		// Stage spans carry durations only; they are laid end to end from
		// the plan's start, and the remainder of the plan is unattributed.
		id := tr.record(0, "bootes.PlanContext", it.name, t0, t1)
		at := t0
		for _, st := range ot.Report() {
			end := at.Add(time.Duration(st.Seconds * float64(time.Second)))
			tr.record(id, "stage."+st.Stage, it.name, at, end)
			at = end
			name := st.Stage
			if st.Stage == obs.StageSimilarity && p.SimilarityMode == core.SimApprox.String() {
				name = "lsh.similarity"
			}
			stages[name] += st.Seconds
		}
	}
	attributed := 0.0
	for _, s := range stages {
		attributed += s
	}
	m["pipeline.wall_s"] = wall.Seconds() / n
	m["pipeline.unattributed_s"] = (wall.Seconds() - attributed) / n
	m["pipeline.alloc_bytes_per_plan"] = float64(allocs) / n
	m["pipeline.similarity_share"] = (stages[obs.StageSimilarity] + stages["lsh.similarity"]) / wall.Seconds()
	m["pipeline.eigensolve_share"] = stages[obs.StageEigensolve] / wall.Seconds()
	m["sparse.similarity_s"] = stages[obs.StageSimilarity] / n
	m["lsh.similarity_s"] = stages["lsh.similarity"] / n
	m["eigen.eigensolve_s"] = stages[obs.StageEigensolve] / n
	m["cluster.kmeans_s"] = stages[obs.StageKMeans] / n
	m["cluster.permute_s"] = stages[obs.StagePermute] / n
	m["trace.overhead_frac"] = (wall.Seconds() - plain.Seconds()) / plain.Seconds()

	if err := traceLayers(ctx, items, tr, rep, digests); err != nil {
		return err
	}
	if serving {
		if err := traceServingPhases(ctx, cfg, rep, tr); err != nil {
			return err
		}
	}
	spans, _ := tr.overhead()
	m["trace.spans"] = float64(spans)
	setLayers(rep)
	rep.notes["stage_seconds"] = stages
	rep.notes["spans_file"] = spansPath(cfg)
	return tr.write(spansPath(cfg))
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// traceLayers calls each planning layer's public function directly, the way
// the pipeline does, to time it and read its work counters: features and the
// gate (core), the tier selector, the similarity kernel of the chosen tier
// (sparse or lsh), one spectral pass (eigen, cluster), and verification.
func traceLayers(ctx context.Context, items []planItem, tr *tracer, rep *report, digests *digestStore) error {
	m := rep.metrics
	n := float64(len(items))
	var features, gate, verify time.Duration
	var reorders, simNNZ, matvecs, kmIters, fallbacks int
	tiers := map[string]int{}
	timed := func(name, op string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.record(0, name, op, t0, t1)
		return t1.Sub(t0), err
	}
	for _, it := range items {
		a := it.m
		d, _ := timed("core.ExtractFeatures", it.name, func() error {
			core.ExtractFeatures(a, core.FeatureOptions{})
			return nil
		})
		features += d
		var label int
		d, err := timed("core.Pipeline.Decide", it.name, func() (err error) {
			label, _, err = (&core.Pipeline{}).Decide(a)
			return err
		})
		gate += d
		if err != nil {
			return fmt.Errorf("%s: gate: %w", it.name, err)
		}
		k, err := core.KForLabel(label)
		if err != nil {
			return fmt.Errorf("%s: gate: %w", it.name, err)
		}
		if k == 0 {
			continue
		}
		reorders++
		mode := bootes.EffectiveSimilarityMode(a, &bootes.Options{Seed: planSeed})
		tiers[mode.String()]++

		counts := sparse.ColCounts(a)
		hub := sparse.HubDegreeThresholdFromCounts(counts)
		var s *sparse.CSR
		if _, err := timed("similarity."+mode.String(), it.name, func() (err error) {
			switch mode {
			case core.SimApprox:
				s, err = lsh.SparsifiedSimilarity(ctx, a, hub, counts, lsh.SparsifyParams())
			case core.SimBitset:
				s, err = sparse.SimilarityBitsetContext(ctx, a, hub, counts)
			case core.SimExact:
				s, err = sparse.SimilarityContext(ctx, a, hub, counts)
			}
			return err
		}); err != nil {
			return fmt.Errorf("%s: similarity: %w", it.name, err)
		}
		if s != nil {
			simNNZ += int(s.NNZ())
		}
		s = nil

		var sr *core.SpectralResult
		if _, err := timed("core.Spectral.ReorderContext", it.name, func() (err error) {
			sr, err = core.Spectral{Opts: core.SpectralOptions{K: k, Seed: planSeed}}.ReorderContext(ctx, a)
			return err
		}); err != nil {
			return fmt.Errorf("%s: spectral pass: %w", it.name, err)
		}
		matvecs += sr.MatVecs
		kmIters += sr.KMeansIters

		res := &reorder.Result{Perm: sr.Perm, Reordered: !sr.Perm.IsIdentity(),
			Extra: map[string]float64{"k": float64(k)}}
		var vs []planverify.Violation
		d, _ = timed("planverify.VerifyResult", it.name, func() error {
			_, vs = planverify.VerifyResult(planverify.SitePlan, a, res, &planverify.Config{Traffic: true})
			return nil
		})
		verify += d
		if len(vs) > 0 {
			fallbacks++
		} else if exactClass(mode.String()) && !digests.check(it.name, permDigest(sr.Perm)) {
			rep.reject("%s: direct spectral pass disagrees with the pipeline's exact-tier plan", it.name)
		}
	}
	m["core.features_s"] = features.Seconds() / n
	m["core.gate_s"] = gate.Seconds() / n
	m["core.gate_reorder_frac"] = float64(reorders) / n
	m["core.tier_exact"] = float64(tiers["exact"])
	m["core.tier_bitset"] = float64(tiers["bitset"])
	m["core.tier_approx"] = float64(tiers["approx"])
	m["core.tier_implicit"] = float64(tiers["implicit"])
	m["sparse.similarity_nnz"] = float64(simNNZ)
	m["eigen.matvecs"] = float64(matvecs)
	m["cluster.kmeans_iters"] = float64(kmIters)
	m["planverify.verify_s"] = verify.Seconds() / n
	m["planverify.fallbacks"] = float64(fallbacks)
	return nil
}
