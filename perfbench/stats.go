package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// jsonInf stands in for +Inf in the JSON result, which has no infinity: a
// latency percentile that lands on a failed request reads as 1e300 s.
const jsonInf = 1e300

// posInf is the latency of a failed operation.
var posInf = math.Inf(1)

// finite maps ±Inf and NaN onto values encoding/json accepts.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return jsonInf
	case math.IsInf(v, -1):
		return -jsonInf
	case math.IsNaN(v):
		return 0
	}
	return v
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1). +Inf
// samples (failed operations) sort last. Empty input reads as +Inf: no
// operation completed.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with the default
// "exclusive" method, so the steadiness report reads the same numbers a
// Python check would.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// geomean is the geometric mean of positive values (1 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// validPerm reports whether p is a bijection on [0, n).
func validPerm(p []int32, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// permDigest is a short content hash of a permutation.
func permDigest(p []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// exactClass reports whether a plan's similarity tier promises bit-identical
// permutations across runs: the exact and bitset tiers, or no spectral pass
// at all (the gate declined and the plan is the identity).
func exactClass(mode string) bool {
	return mode == "" || mode == "exact" || mode == "bitset"
}
