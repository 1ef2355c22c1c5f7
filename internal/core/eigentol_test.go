package core

import (
	"context"
	"math"
	"testing"

	"bootes/internal/accel"
	"bootes/internal/eigen"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// planMidMatVecs is the operator-application count of a default-options
// k=32 spectral pass over the 6144-row plan-mid fixture
// (denseSimilarityMatrix). It pins the clustering-grade stop rule: a change
// that moves it changes every exact-tier plan and must re-pin it.
const planMidMatVecs = 80

// TestSpectralPlanMidMatVecs runs the default exact-tier spectral pass on
// the plan-mid fixture at one worker and at the full budget; both must take
// planMidMatVecs operator applications.
func TestSpectralPlanMidMatVecs(t *testing.T) {
	a := denseSimilarityMatrix()
	opts := SpectralOptions{K: 32, Seed: 1}
	if mode := EffectiveSimilarityMode(a, opts); mode != SimExact {
		t.Fatalf("fixture resolves to %v, want exact", mode)
	}
	for _, w := range []int{1, parallel.Workers()} {
		prev := parallel.SetWorkers(w)
		res, err := Spectral{Opts: opts}.ReorderContext(context.Background(), a)
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.MatVecs != planMidMatVecs {
			t.Errorf("workers=%d: MatVecs = %d, want %d", w, res.MatVecs, planMidMatVecs)
		}
	}
}

// TestClusterGradeTolKeepsPlanQuality compares default-options k=32 plans
// (looseTol) with plans solved to a 1e-5 Ritz residual on the archetypes
// where a loose solve could hurt: the small-gap ones (noisy-block64,
// hub-power-law) and the smooth-spectrum ones (fem-mesh, knn-graph). Each
// archetype is planned at both plan-mid sizes and two seeds. Traffic is
// scored as the benchmark scores it: simulated row-wise SpGEMM bytes with a
// shared cache of ~1/20 of B, reordered ÷ original. A single fem-mesh or
// knn-graph input moves by up to ~5% either way between the two tolerances,
// so the per-archetype bound holds over the four inputs, not per input.
func TestClusterGradeTolKeepsPlanQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 16 plan-mid-sized inputs twice")
	}
	archs := []workloads.Archetype{
		workloads.ArchNoisyBlock64, workloads.ArchHubPowerLaw,
		workloads.ArchFEM, workloads.ArchKNN,
	}
	const inputs = 4 // two sizes × two seeds
	logLoose, logTight := 0.0, 0.0
	for _, arch := range archs {
		archLoose, archTight := 0.0, 0.0
		for _, rows := range []int{5120, 6144} {
			for _, seed := range []int64{1, 2} {
				a := workloads.Generate(arch, workloads.Params{
					Rows: rows, Cols: rows, Density: 32.0 / float64(rows), Groups: 16, Seed: seed,
				})
				base := simTraffic(t, a, nil)
				for _, tc := range []struct {
					tol float64
					sum *float64
				}{{0, &archLoose}, {1e-5, &archTight}} {
					res, err := Spectral{Opts: SpectralOptions{K: 32, Seed: 1, Eigen: eigen.Options{Tol: tc.tol}}}.
						ReorderContext(context.Background(), a)
					if err != nil {
						t.Fatalf("%s %d rows seed %d tol %g: %v", arch, rows, seed, tc.tol, err)
					}
					*tc.sum += math.Log(simTraffic(t, a, res.Perm) / base)
				}
			}
		}
		loose, tight := math.Exp(archLoose/inputs), math.Exp(archTight/inputs)
		t.Logf("%s: traffic %.4f at looseTol, %.4f at 1e-5", arch, loose, tight)
		if loose > tight*1.01 {
			t.Errorf("%s: looseTol traffic %.4f more than 1%% above the 1e-5 plans' %.4f", arch, loose, tight)
		}
		logLoose += archLoose
		logTight += archTight
	}
	n := float64(inputs * len(archs))
	if loose, tight := math.Exp(logLoose/n), math.Exp(logTight/n); loose > tight*1.005 {
		t.Errorf("traffic geomean %.4f at looseTol, more than 0.5%% above %.4f at 1e-5", loose, tight)
	}
}

// simTraffic returns the simulated off-chip bytes of the row-wise product
// a·a with a's rows in perm order (nil: original order) and a shared cache
// of ~1/20 of a's bytes.
func simTraffic(t *testing.T, a *sparse.CSR, perm sparse.Permutation) float64 {
	t.Helper()
	ap := a
	if perm != nil {
		var err error
		if ap, err = sparse.PermuteRows(a, perm); err != nil {
			t.Fatal(err)
		}
	}
	cfg := accel.Config{Name: "tol-guard", PEs: accel.GAMMA.PEs, CacheBytes: max(a.NNZ()*12/20, 2<<10)}
	res, err := accel.SimulateRowWise(cfg, ap, a)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Traffic.Total())
}
