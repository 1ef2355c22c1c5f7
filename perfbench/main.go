// Command perfbench is the repository's benchmark. It generates every input
// from a seed, drives one workload through the planner or the serving stack,
// checks the outputs, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload plan-mid --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run that prints the per-layer metrics and writes its spans under --out.
// The workloads and metrics are described in BENCHMARK.json at the root of
// the repository. --steady N runs one workload N times, each in its own
// process with seeds seed … seed+N-1, and reports every metric's quartiles
// and spread against its bound:
//
//	bash perfbench/run.sh --steady 5 --workload plan-mid --seed 1 --seconds 20
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input size multiplier; 1 is the benchmark, smoke runs use less
	out      string  // directory for spans, plan digests and scratch state
}

// setupRuns is how many times a timed run sets its workload up; setup_s is
// the median of their times.
const setupRuns = 3

// workloadTable maps each workload name to its runner. The serving
// workloads run when asked for by name; BENCHMARK.json leaves them out (see
// traceServingPhases).
var workloadTable = map[string]func(context.Context, config) (*report, error){
	"plan-mid":    func(ctx context.Context, c config) (*report, error) { return runPlan(ctx, c, planMidSpecs, false) },
	"plan-dense":  func(ctx context.Context, c config) (*report, error) { return runPlan(ctx, c, planDenseSpecs, true) },
	"serve-zipf":  runZipf,
	"serve-async": runAsync,
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"nnz_per_s", "nnz/s"},
	{"lat_p50_s", "s"},
	{"lat_p99_s", "s"},
	{"ack_p50_s", "s"},
	{"ack_p99_s", "s"},
	{"traffic_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics a traced run prints, on every workload; a layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	{"core.features_s", "s"},
	{"core.gate_s", "s"},
	{"core.gate_reorder_frac", "ratio"},
	{"core.tier_exact", "count"},
	{"core.tier_bitset", "count"},
	{"core.tier_approx", "count"},
	{"core.tier_implicit", "count"},
	{"sparse.similarity_s", "s"},
	{"lsh.similarity_s", "s"},
	{"sparse.similarity_nnz", "count"},
	{"sparse.decode_s", "s"},
	{"eigen.eigensolve_s", "s"},
	{"eigen.matvecs", "count"},
	{"cluster.kmeans_s", "s"},
	{"cluster.kmeans_iters", "count"},
	{"cluster.permute_s", "s"},
	{"planverify.verify_s", "s"},
	{"planverify.fallbacks", "count"},
	{"pipeline.wall_s", "s"},
	{"pipeline.unattributed_s", "s"},
	{"pipeline.similarity_share", "ratio"},
	{"pipeline.eigensolve_share", "ratio"},
	{"pipeline.alloc_bytes_per_plan", "B"},
	{"plancache.key_s", "s"},
	{"plancache.get_s", "s"},
	{"plancache.put_s", "s"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.hit_ratio_h1", "ratio"},
	{"plancache.hit_ratio_h2", "ratio"},
	{"planserve.server_mean_s", "s"},
	{"planserve.transport_s", "s"},
	{"planserve.coalesced", "count"},
	{"planserve.shed", "count"},
	{"planserve.retries", "count"},
	{"fleet.forward_frac", "ratio"},
	{"fleet.hedges", "count"},
	{"fleet.hop_s", "s"},
	{"planqueue.enqueue_s", "s"},
	{"planqueue.depth_max", "count"},
	{"planqueue.journal_bytes_per_job", "B"},
	{"planqueue.compactions", "count"},
	{"planqueue.polls_per_job", "count"},
	{"client.lag_max_s", "s"},
	{"client.backlog_max", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// report is what a workload hands back: its operation tally, the set-up
// times, and the metrics it measured.
type report struct {
	tally
	setup   []float64
	metrics map[string]float64
	notes   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]any{}}
}

// tally counts operations and output-check failures. Every operation calls
// op once; every failed output check calls reject, which adds one failure.
type tally struct {
	attempted, failed, bad atomic.Int64

	mu       sync.Mutex
	problems []string
}

func (t *tally) op(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

func (t *tally) reject(format string, args ...any) {
	t.bad.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: plan-mid, plan-dense, serve-zipf or serve-async")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 20, "how long the timed part of a run lasts")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	scale := fs.Float64("scale", 1, "input size multiplier (below 1 for smoke runs)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, plan digests and scratch state")
	steady := fs.Int("steady", 0, "run the workload this many times in separate processes and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadTable[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds and --scale must be positive, --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: *scale, out: *out,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *steady > 0 {
		return runSteady(ctx, cfg, *steady, stdout, stderr)
	}
	rep, err := workloadTable[cfg.workload](ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	res, err := assemble(cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", p)
	}
	info := map[string]any{"provenance": collectProvenance(cfg, args), "notes": rep.notes}
	if err := writeJSONLine(stdout, info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble builds the result line: the end-to-end metrics for a timed run,
// the per-layer metrics for a traced one. A metric the workload did not set
// is a harness bug, not a zero.
func assemble(cfg config, rep *report) (*result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		rep.metrics["setup_s"] = median(rep.setup)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		if a := rep.attempted.Load(); a > 0 {
			rep.metrics["ok_frac"] = 1 - float64(rep.failed.Load())/float64(a)
		}
	}
	res := &result{
		Correct:   rep.bad.Load() == 0,
		Attempted: rep.attempted.Load(),
		Failed:    rep.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setUp runs a workload's set-up setupRuns times (once for a traced run),
// timing each into rep.setup, and closes every set-up but the last, which it
// returns: setup_s is the median of several set-ups in one process.
func setUp[T any](cfg config, rep *report, setup func() (T, error), close func(T)) (T, error) {
	n := setupRuns
	if cfg.trace {
		n = 1
	}
	var cur T
	for i := 0; i < n; i++ {
		if i > 0 {
			close(cur)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		cur = v
	}
	return cur, nil
}

// setLayers fills every per-layer metric the workload leaves unset with 0:
// that layer is idle on this workload.
func setLayers(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.metrics[d.name]; !ok {
			rep.metrics[d.name] = 0
		}
	}
}
