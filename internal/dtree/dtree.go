// Package dtree implements the CART decision-tree classifier Bootes uses
// for its cost-benefit analysis (paper §3.2): given a matrix's structural
// fingerprint it predicts whether reordering is worthwhile and, if so,
// which cluster count k to use. Training supports per-class balancing
// weights (the paper's mitigation for the dominant "no reorder" class),
// depth/min-leaf regularization, and JSON (de)serialization so a trained
// model can ship with a deployment.
package dtree

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample is one labelled training example.
type Sample struct {
	Features []float64
	Label    int
	// Weight scales the sample's influence; 0 is treated as 1.
	Weight float64
}

// Options configures training.
type Options struct {
	// MaxDepth bounds the tree depth. 0 selects 8.
	MaxDepth int
	// MinLeaf is the minimum weighted sample count in a leaf. 0 selects 3.
	MinLeaf float64
	// MinImpurityDecrease prunes splits with less Gini gain. 0 selects 1e-7.
	MinImpurityDecrease float64
	// BalanceClasses reweights samples so every class has equal total
	// weight, as the paper does to counter the "no reorder" majority.
	BalanceClasses bool
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 8
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 3
	}
	if o.MinImpurityDecrease == 0 {
		o.MinImpurityDecrease = 1e-7
	}
	return o
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	Feature   int     `json:"f"`           // split feature index, -1 for leaf
	Threshold float64 `json:"t,omitempty"` // go left when x[Feature] <= Threshold
	Left      *Node   `json:"l,omitempty"`
	Right     *Node   `json:"r,omitempty"`
	// Class is the majority class at this node (prediction for leaves).
	Class int `json:"c"`
	// Counts holds the weighted class histogram (diagnostics/probabilities).
	Counts []float64 `json:"n,omitempty"`
}

// Tree is a trained CART classifier.
type Tree struct {
	Root      *Node    `json:"root"`
	NumClass  int      `json:"numClass"`
	Features  []string `json:"features,omitempty"`
	NodeCount int      `json:"nodeCount"`
	Depth     int      `json:"depth"`
}

// Errors returned by training and prediction.
var (
	ErrNoSamples  = errors.New("dtree: no training samples")
	ErrDimension  = errors.New("dtree: inconsistent feature dimensions")
	ErrBadLabel   = errors.New("dtree: label out of range")
	ErrNotTrained = errors.New("dtree: tree has no root")
	// ErrMalformed reports a decoded tree that cannot be evaluated safely.
	ErrMalformed = errors.New("dtree: malformed tree")
)

// Train fits a CART tree to samples with numClass classes.
func Train(samples []Sample, numClass int, opts Options) (*Tree, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	opts = opts.withDefaults()
	dim := len(samples[0].Features)
	classTotals := make([]float64, numClass)
	for _, s := range samples {
		if len(s.Features) != dim {
			return nil, ErrDimension
		}
		if s.Label < 0 || s.Label >= numClass {
			return nil, fmt.Errorf("%w: %d", ErrBadLabel, s.Label)
		}
		classTotals[s.Label] += weightOf(s)
	}

	// Effective weights, optionally balanced so every class carries equal
	// total weight while the grand total stays ≈ Σ sample weights (the
	// sklearn "balanced" convention: w·n/(k·n_c)), keeping MinLeaf
	// thresholds meaningful.
	weights := make([]float64, len(samples))
	grand := 0.0
	for _, ct := range classTotals {
		grand += ct
	}
	presentClasses := 0
	for _, ct := range classTotals {
		if ct > 0 {
			presentClasses++
		}
	}
	for i, s := range samples {
		w := weightOf(s)
		if opts.BalanceClasses && classTotals[s.Label] > 0 && presentClasses > 0 {
			w *= grand / (float64(presentClasses) * classTotals[s.Label])
		}
		weights[i] = w
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{NumClass: numClass}
	t.Root = grow(samples, weights, idx, numClass, opts, 0, t)
	return t, nil
}

func weightOf(s Sample) float64 {
	if s.Weight == 0 {
		return 1
	}
	return s.Weight
}

// grow recursively builds the tree over the sample subset idx.
func grow(samples []Sample, weights []float64, idx []int, numClass int, opts Options, depth int, t *Tree) *Node {
	t.NodeCount++
	if depth > t.Depth {
		t.Depth = depth
	}
	counts := make([]float64, numClass)
	total := 0.0
	for _, i := range idx {
		counts[samples[i].Label] += weights[i]
		total += weights[i]
	}
	node := &Node{Feature: -1, Class: argmax(counts), Counts: counts}
	if depth >= opts.MaxDepth || total < 2*opts.MinLeaf || gini(counts, total) == 0 {
		return node
	}

	bestGain := opts.MinImpurityDecrease
	bestFeature, bestThreshold := -1, 0.0
	parentImp := gini(counts, total)
	dim := len(samples[idx[0]].Features)

	order := make([]int, len(idx))
	leftCounts := make([]float64, numClass)
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.SliceStable(order, func(a, b int) bool {
			return samples[order[a]].Features[f] < samples[order[b]].Features[f]
		})
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		leftTotal := 0.0
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			leftCounts[samples[i].Label] += weights[i]
			leftTotal += weights[i]
			cur, next := samples[i].Features[f], samples[order[pos+1]].Features[f]
			if cur == next {
				continue // cannot split between equal values
			}
			rightTotal := total - leftTotal
			if leftTotal < opts.MinLeaf || rightTotal < opts.MinLeaf {
				continue
			}
			leftImp := gini(leftCounts, leftTotal)
			rightImp := giniComplement(counts, leftCounts, rightTotal)
			gain := parentImp - (leftTotal*leftImp+rightTotal*rightImp)/total
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (cur + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return node
	}

	var left, right []int
	for _, i := range idx {
		if samples[i].Features[bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	node.Feature = bestFeature
	node.Threshold = bestThreshold
	node.Left = grow(samples, weights, left, numClass, opts, depth+1, t)
	node.Right = grow(samples, weights, right, numClass, opts, depth+1, t)
	return node
}

func gini(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := c / total
		s += p * p
	}
	return 1 - s
}

// giniComplement computes the Gini impurity of (parent − left).
func giniComplement(parent, left []float64, rightTotal float64) float64 {
	if rightTotal <= 0 {
		return 0
	}
	s := 0.0
	for i := range parent {
		p := (parent[i] - left[i]) / rightTotal
		s += p * p
	}
	return 1 - s
}

func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			bestV, best = x, i
		}
	}
	return best
}

// Predict returns the predicted class for features x.
func (t *Tree) Predict(x []float64) (int, error) {
	if t.Root == nil {
		return 0, ErrNotTrained
	}
	n := t.Root
	for n.Feature >= 0 {
		if n.Feature >= len(x) {
			return 0, ErrDimension
		}
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class, nil
}

// PredictProba returns the class distribution at the reached leaf.
func (t *Tree) PredictProba(x []float64) ([]float64, error) {
	if t.Root == nil {
		return nil, ErrNotTrained
	}
	n := t.Root
	for n.Feature >= 0 {
		if n.Feature >= len(x) {
			return nil, ErrDimension
		}
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	total := 0.0
	for _, c := range n.Counts {
		total += c
	}
	probs := make([]float64, len(n.Counts))
	if total > 0 {
		for i, c := range n.Counts {
			probs[i] = c / total
		}
	}
	return probs, nil
}

// Accuracy returns the fraction of samples t classifies correctly.
func (t *Tree) Accuracy(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	correct := 0
	for _, s := range samples {
		c, err := t.Predict(s.Features)
		if err != nil {
			return 0, err
		}
		if c == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}

// FeatureImportance returns per-feature weighted Gini-gain totals, the
// importance measure the paper used to prune its candidate feature set.
func (t *Tree) FeatureImportance(dim int) []float64 {
	imp := make([]float64, dim)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.Feature < 0 {
			return
		}
		total := sum(n.Counts)
		lTotal := sum(n.Left.Counts)
		rTotal := sum(n.Right.Counts)
		gain := gini(n.Counts, total) - (lTotal*gini(n.Left.Counts, lTotal)+rTotal*gini(n.Right.Counts, rTotal))/total
		if n.Feature < dim {
			imp[n.Feature] += gain * total
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return imp
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// MarshalJSON/Unmarshal round-trip through the exported struct fields.

// Encode serializes the tree to JSON.
func (t *Tree) Encode() ([]byte, error) { return json.Marshal(t) }

// Decode parses a tree serialized by Encode and rejects one that Validate
// refuses, bounding split features by the recorded feature names when the
// tree carries them.
func Decode(data []byte) (*Tree, error) {
	var t Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	if err := t.Validate(len(t.Features), nil); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks that t is safe to evaluate on feature vectors of length
// numFeatures: every internal node has both children and splits on a
// feature in [0, numFeatures); every leaf is marked Feature == -1 and
// predicts a class in [0, NumClass) that classOK, when non-nil, accepts; and
// every class histogram is empty or has NumClass entries. numFeatures ≤ 0
// skips the feature bound. A missing root is ErrNotTrained; every other
// failure wraps ErrMalformed.
func (t *Tree) Validate(numFeatures int, classOK func(class int) error) error {
	if t.Root == nil {
		return ErrNotTrained
	}
	if t.NumClass < 1 {
		return fmt.Errorf("%w: numClass %d", ErrMalformed, t.NumClass)
	}
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(n.Counts) != 0 && len(n.Counts) != t.NumClass {
			return fmt.Errorf("%w: class histogram of %d entries, want %d", ErrMalformed, len(n.Counts), t.NumClass)
		}
		switch {
		case n.Feature == -1:
			if n.Class < 0 || n.Class >= t.NumClass {
				return fmt.Errorf("%w: leaf class %d outside [0, %d)", ErrMalformed, n.Class, t.NumClass)
			}
			if classOK != nil {
				if err := classOK(n.Class); err != nil {
					return fmt.Errorf("%w: leaf class %d: %v", ErrMalformed, n.Class, err)
				}
			}
		case n.Feature < 0:
			return fmt.Errorf("%w: negative split feature %d", ErrMalformed, n.Feature)
		case numFeatures > 0 && n.Feature >= numFeatures:
			return fmt.Errorf("%w: split feature %d outside [0, %d)", ErrMalformed, n.Feature, numFeatures)
		case n.Left == nil || n.Right == nil:
			return fmt.Errorf("%w: split on feature %d is missing a child", ErrMalformed, n.Feature)
		default:
			stack = append(stack, n.Left, n.Right)
		}
	}
	return nil
}

// ModeledBytes estimates the serialized model size — the paper highlights
// its 11 KB decision tree as a deployment advantage.
func (t *Tree) ModeledBytes() int64 {
	data, err := t.Encode()
	if err != nil {
		return 0
	}
	return int64(len(data))
}
