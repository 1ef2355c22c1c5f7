package bootes

import (
	"testing"

	"bootes/internal/workloads"
)

func smallMatrix(t *testing.T, seed int64) *Matrix {
	t.Helper()
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 96, Cols: 96, Density: 0.05, Seed: seed, Groups: 4,
	})
}

// TestOptionsCacheRoundTrip: the second identical Plan call is served from
// the persistent cache with an identical permutation, and the cache survives
// a reopen (fresh process).
func TestOptionsCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenPlanCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := smallMatrix(t, 7)
	opts := &Options{Seed: 1, ForceReorder: true, ForceK: 4, Cache: cache}

	p1, err := Plan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.FromCache {
		t.Fatal("first plan claims to be cached")
	}
	if p1.Degraded {
		t.Fatalf("healthy input degraded: %s", p1.DegradedReason)
	}
	p2, err := Plan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.FromCache {
		t.Fatal("second identical plan not served from cache")
	}
	if len(p1.Perm) != len(p2.Perm) {
		t.Fatal("cached plan has different shape")
	}
	for i := range p1.Perm {
		if p1.Perm[i] != p2.Perm[i] {
			t.Fatalf("cached permutation diverges at %d", i)
		}
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 put", st)
	}

	// A fresh open (a new process) still serves the plan.
	reopened, err := OpenPlanCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened cache holds %d entries, want 1", reopened.Len())
	}
	opts.Cache = reopened
	p3, err := Plan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p3.FromCache {
		t.Fatal("plan not served from reopened cache")
	}
}

// TestPlanKeyCoversOptions: options that change the planned permutation must
// miss rather than collide, while a pure value change on the same pattern
// must hit.
func TestPlanKeyCoversOptions(t *testing.T) {
	cache, err := OpenPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := smallMatrix(t, 7)
	base := Options{Seed: 1, ForceReorder: true, ForceK: 4, Cache: cache}
	if _, err := Plan(m, &base); err != nil {
		t.Fatal(err)
	}

	for name, o := range map[string]Options{
		"seed":     {Seed: 2, ForceReorder: true, ForceK: 4, Cache: cache},
		"forceK":   {Seed: 1, ForceReorder: true, ForceK: 8, Cache: cache},
		"implicit": {Seed: 1, ForceReorder: true, ForceK: 4, Similarity: SimImplicit, Cache: cache},
	} {
		p, err := Plan(m, &o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.FromCache {
			t.Errorf("option change %q wrongly hit the cache", name)
		}
	}

	// Same structure, different values: planning only consumes the pattern,
	// so this is the same plan and must hit.
	shifted := m.Clone()
	for i := range shifted.Val {
		shifted.Val[i] *= 3.5
	}
	if MatrixKey(shifted) != MatrixKey(m) {
		t.Fatal("MatrixKey depends on values")
	}
	p, err := Plan(shifted, &base)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FromCache {
		t.Error("value-only change missed the cache")
	}
}
