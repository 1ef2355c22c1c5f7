package dtree

import (
	"encoding/json"
	"math/rand"
)

// Forest is a bagged ensemble of CART trees (a random forest with feature
// subsampling). The paper reports experimenting with random forests and
// XGBoost before settling on a single decision tree: the ensembles were a
// little more accurate but required considerably more storage, which
// matters for the online deployment Bootes targets. This implementation
// exists to reproduce that trade-off (see experiments.ModelComparison).
type Forest struct {
	Trees    []*Tree `json:"trees"`
	NumClass int     `json:"numClass"`
}

// ForestOptions configures random-forest training.
type ForestOptions struct {
	// Trees is the ensemble size. 0 selects 25.
	Trees int
	// Tree configures each member tree (MaxDepth 0 selects 10 — deeper than
	// a lone CART tree since bagging controls variance).
	Tree Options
	// FeatureFraction of features considered per split, approximated by
	// training each tree on a random feature subset. 0 selects ~√dim/dim.
	FeatureFraction float64
	// SampleFraction of samples bootstrapped per tree. 0 selects 1.0
	// (sampling with replacement).
	SampleFraction float64
	// Seed drives bootstrapping and feature subsetting.
	Seed int64
}

func (o ForestOptions) withDefaults() ForestOptions {
	if o.Trees == 0 {
		o.Trees = 25
	}
	if o.Tree.MaxDepth == 0 {
		o.Tree.MaxDepth = 10
	}
	if o.SampleFraction == 0 {
		o.SampleFraction = 1.0
	}
	return o
}

// TrainForest fits a bagged ensemble to samples with numClass classes.
//
// Feature subsampling is implemented by masking: each tree sees all feature
// columns, but the masked ones are replaced by a constant so no split can
// use them. This keeps Tree's Predict signature unchanged.
func TrainForest(samples []Sample, numClass int, opts ForestOptions) (*Forest, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	opts = opts.withDefaults()
	dim := len(samples[0].Features)
	keep := opts.FeatureFraction
	if keep == 0 {
		keep = sqrtFrac(dim)
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0xf02e57))

	f := &Forest{NumClass: numClass}
	for t := 0; t < opts.Trees; t++ {
		// Bootstrap sample.
		n := int(float64(len(samples)) * opts.SampleFraction)
		if n < 1 {
			n = 1
		}
		boot := make([]Sample, n)
		for i := range boot {
			boot[i] = samples[rng.Intn(len(samples))]
		}
		// Feature mask: at least one feature survives.
		mask := make([]bool, dim)
		kept := 0
		for d := range mask {
			if rng.Float64() < keep {
				mask[d] = true
				kept++
			}
		}
		if kept == 0 {
			mask[rng.Intn(dim)] = true
		}
		masked := make([]Sample, len(boot))
		for i, s := range boot {
			feats := make([]float64, dim)
			for d := range feats {
				if mask[d] {
					feats[d] = s.Features[d]
				}
			}
			masked[i] = Sample{Features: feats, Label: s.Label, Weight: s.Weight}
		}
		tree, err := Train(masked, numClass, opts.Tree)
		if err != nil {
			return nil, err
		}
		f.Trees = append(f.Trees, tree)
	}
	return f, nil
}

func sqrtFrac(dim int) float64 {
	if dim <= 1 {
		return 1
	}
	// ≈ √dim features per split.
	s := 1.0
	for s*s < float64(dim) {
		s++
	}
	return s / float64(dim)
}

// Predict returns the majority vote over the ensemble.
func (f *Forest) Predict(x []float64) (int, error) {
	if len(f.Trees) == 0 {
		return 0, ErrNotTrained
	}
	votes := make([]float64, f.NumClass)
	for _, t := range f.Trees {
		c, err := t.Predict(x)
		if err != nil {
			return 0, err
		}
		votes[c]++
	}
	return argmax(votes), nil
}

// Accuracy returns the fraction of samples the forest classifies correctly.
func (f *Forest) Accuracy(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	correct := 0
	for _, s := range samples {
		c, err := f.Predict(s.Features)
		if err != nil {
			return 0, err
		}
		if c == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}

// Encode serializes the forest to JSON.
func (f *Forest) Encode() ([]byte, error) { return json.Marshal(f) }

// ModeledBytes estimates the serialized ensemble size — the storage cost the
// paper weighed against the ensemble's accuracy gain.
func (f *Forest) ModeledBytes() int64 {
	data, err := f.Encode()
	if err != nil {
		return 0
	}
	return int64(len(data))
}
