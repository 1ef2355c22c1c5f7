package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload, timed and then traced, at a
// tiny size for one second, so the harness cannot rot: each run must pass
// its output checks (the traced run re-checks the timed run's exact-tier
// digests) and print exactly the metrics BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, m := range bf.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range bf.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	out := t.TempDir()
	for _, w := range []string{"plan-mid", "plan-dense", "serve-zipf", "serve-async"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--scale", "0.1", "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				res, err := lastResult(stdout.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				exp := append([]string(nil), want[trace]...)
				sort.Strings(exp)
				if !equalStrings(got, exp) {
					t.Fatalf("metrics printed %v, BENCHMARK.json lists %v", got, exp)
				}
			})
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestOpenLoopKeepsSchedule checks the generator's defining property: a
// request that stalls does not delay the requests due after it.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * 5 * time.Millisecond})
	}
	release := make(chan struct{})
	var started atomic.Int64
	ls := openLoop(context.Background(), arrivals, func(i int, due time.Time) {
		if started.Add(1) == int64(len(arrivals)) {
			close(release)
		}
		if i == 0 {
			<-release // answered only after every other request was sent
		}
	})
	if ls.lagMax > 40*time.Millisecond {
		t.Fatalf("generator ran %v late behind a stalled request", ls.lagMax)
	}
	if ls.backlogMax < 2 {
		t.Fatalf("backlog max %d: the stalled request was not outstanding", ls.backlogMax)
	}
}
