package main

import (
	"bytes"
	"fmt"

	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// matrixSpec describes one generated input: an archetype at a size.
type matrixSpec struct {
	arch   workloads.Archetype
	rows   int
	rowNNZ float64
	groups int
}

func (s matrixSpec) String() string {
	return fmt.Sprintf("%s-%dx%.0f", s.arch, s.rows, s.rowNNZ)
}

// generate builds the matrix for seed; scale shrinks it for smoke runs.
func (s matrixSpec) generate(seed int64, scale float64) *sparse.CSR {
	rows := int(float64(s.rows) * scale)
	if rows < 64 {
		rows = 64
	}
	nnz := s.rowNNZ
	if nnz > float64(rows)/4 {
		nnz = float64(rows) / 4
	}
	return workloads.Generate(s.arch, workloads.Params{
		Rows: rows, Cols: rows, Density: nnz / float64(rows), Seed: seed, Groups: s.groups,
	})
}

// mix derives an independent stream seed from the workload seed and an
// index (SplitMix64 finalizer), so each input has its own generator state.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// planMidSpecs is the plan-mid batch: mid-size sparse matrices (density
// below the bitset gate, so every spectral plan runs the exact merge tier).
// Seven archetypes the heuristic gate reorders at k=32, two sizes each, and
// two it declines. Two sizes per archetype keep the batch's median plan from
// resting on one matrix.
var planMidSpecs = []matrixSpec{
	{workloads.ArchScrambledBlock, 5120, 32, 16},
	{workloads.ArchFEM, 5120, 32, 0},
	{workloads.ArchKNN, 5120, 32, 16},
	{workloads.ArchLP, 5120, 32, 16},
	{workloads.ArchManySmallClusters, 5120, 32, 0},
	{workloads.ArchNoisyBlock64, 5120, 32, 0},
	{workloads.ArchHubPowerLaw, 5120, 32, 16},
	{workloads.ArchScrambledBlock, 6144, 32, 8},
	{workloads.ArchFEM, 6144, 32, 0},
	{workloads.ArchKNN, 6144, 32, 16},
	{workloads.ArchLP, 6144, 32, 16},
	{workloads.ArchManySmallClusters, 6144, 32, 0},
	{workloads.ArchNoisyBlock64, 6144, 32, 0},
	{workloads.ArchHubPowerLaw, 6144, 32, 16},
	{workloads.ArchBanded, 5632, 32, 0},
	{workloads.ArchCircuit, 5632, 32, 0},
}

// planDenseSpecs is the plan-dense batch: dense-row matrices above the 1/64
// density gate (bitset tier) and one of 8192 rows (LSH tier). The
// knn-graph archetype is left out: its traffic ratio swings from 0.09 to
// 0.29 with the seed, which would drown any change in plan quality; so is
// noisy-block64, which the gate declines at this density for some seeds.
var planDenseSpecs = []matrixSpec{
	{workloads.ArchScrambledBlock, 3072, 150, 24},
	{workloads.ArchHubPowerLaw, 3072, 120, 24},
	{workloads.ArchScrambledBlock, 2560, 140, 32},
	{workloads.ArchHubPowerLaw, 2560, 150, 32},
	{workloads.ArchScrambledBlock, 2048, 200, 16},
	{workloads.ArchScrambledBlock, 8192, 24, 16},
}

// serveArchetypes are the reorder-worthy families the serving workloads
// draw their matrices from. The auto-k archetypes (many-small-clusters,
// noisy-block64) plan 2–3× slower at these sizes; left in, a handful of them
// would set the tail latency on their own.
var serveArchetypes = []workloads.Archetype{
	workloads.ArchScrambledBlock, workloads.ArchKNN, workloads.ArchLP,
	workloads.ArchHubPowerLaw, workloads.ArchFEM,
}

// servedMatrix is one serving input: the matrix and its request body, a
// pattern-only BCSR stream (planning reads only the sparsity pattern).
type servedMatrix struct {
	m    *sparse.CSR
	body []byte
}

// servedMatrices generates n serving inputs in parallel; spec(i) gives the
// shape of input i, which is generated from mix(seed, i).
func servedMatrices(n int, seed int64, scale float64, spec func(i int) matrixSpec) ([]servedMatrix, error) {
	out := make([]servedMatrix, n)
	errs := make([]error, n)
	forEach(n, func(i int) {
		m := spec(i).generate(mix(seed, i), scale)
		pattern := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, Col: m.Col}
		var buf bytes.Buffer
		errs[i] = sparse.WriteBinary(&buf, pattern)
		out[i] = servedMatrix{m: pattern, body: buf.Bytes()}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
