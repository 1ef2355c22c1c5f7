package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// runSteady runs one workload n times, each in its own process with seeds
// cfg.seed … cfg.seed+n-1, and prints each metric's median, quartiles and
// spread (interquartile range ÷ median) against its bound in BENCHMARK.json.
// It exits non-zero when a run fails or its output checks fail.
func runSteady(ctx context.Context, cfg config, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err == nil {
			for _, m := range bf.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	var names []string
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace,
			"--scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "--out", cfg.out)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		res, perr := lastResult(out)
		if err != nil || perr != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench: run with seed %d failed: %v %v\n", seed, err, perr)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: seed %d: attempted %d, failed %d\n", seed, res.Attempted, res.Failed)
		for name, mv := range res.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], mv.Value)
		}
	}
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		order[d.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %gs each\n", cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Fprintf(stdout, "%-32s %14s %14s %14s %9s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
			if spread < 0 {
				spread = -spread
			}
		}
		bound, ok := bounds[name]
		verdict, b := "", "-"
		if ok {
			b = strconv.FormatFloat(bound, 'g', -1, 64)
			switch {
			case spread <= bound/3:
				verdict = "steady"
			case spread <= bound:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %14.6g %9.4f %7s  %s\n", name, q1, med, q3, spread, b, verdict)
	}
	for _, name := range names {
		fmt.Fprintf(stdout, "%s by seed: %v\n", name, values[name])
	}
	return 0
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}
