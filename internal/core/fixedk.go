package core

import (
	"context"
	"fmt"

	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// FixedK adapts the spectral reorderer to the reorder.Reorderer interface at
// a fixed cluster count, bypassing the decision-tree gate. Figure 3's
// cluster-size sweep and the ablation benches use it.
type FixedK struct {
	K    int
	Opts SpectralOptions // K field is overridden
}

// Name implements reorder.Reorderer.
func (f FixedK) Name() string { return fmt.Sprintf("Bootes(k=%d)", f.K) }

// Reorder implements reorder.Reorderer.
func (f FixedK) Reorder(a *sparse.CSR) (*reorder.Result, error) {
	opts := f.Opts
	opts.K = f.K
	sr, err := Spectral{Opts: opts}.ReorderContext(context.Background(), a)
	if err != nil {
		return nil, err
	}
	return &reorder.Result{
		Perm:           sr.Perm,
		PreprocessTime: sr.PreprocessTime,
		FootprintBytes: sr.FootprintBytes,
		Reordered:      !sr.Perm.IsIdentity(),
		Extra: map[string]float64{
			"k":           float64(sr.K),
			"matvecs":     float64(sr.MatVecs),
			"kmeansIters": float64(sr.KMeansIters),
		},
	}, nil
}

var _ reorder.Reorderer = FixedK{}
