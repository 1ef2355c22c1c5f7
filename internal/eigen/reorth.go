package eigen

import (
	"math"

	"bootes/internal/parallel"
)

// reorthGrain is the fixed row-chunk size of the dense Krylov-basis kernels.
// Chunk boundaries depend only on n and every reduction merges its per-chunk
// partial sums in ascending chunk order, so the kernels are bit-identical for
// any worker count.
const reorthGrain = 1024

// krylovWork is the workspace of one thick-restart Lanczos solve, allocated
// once: two slabs of m+1 vectors of length n (vector i of a slab occupies
// [i·n, (i+1)·n)), which take turns holding the basis and the Ritz block,
// plus the per-chunk partials and merged coefficients of the reductions.
// The Ritz slab is allocated at the first restart, so a solve that
// converges in its first cycle never holds it.
type krylovWork struct {
	n, chunks   int
	basis, ritz []float64
	part        []float64 // chunks × (m+1) per-chunk partial sums
	h, h0       []float64 // merged coefficients; h0 keeps the first CGS pass
	sq          []float64 // per-chunk partial sums of squares
}

func newKrylovWork(n, m int) *krylovWork {
	chunks := (n + reorthGrain - 1) / reorthGrain
	return &krylovWork{
		n:      n,
		chunks: chunks,
		basis:  make([]float64, (m+1)*n),
		part:   make([]float64, chunks*(m+1)),
		h:      make([]float64, m+1),
		h0:     make([]float64, m+1),
		sq:     make([]float64, chunks),
	}
}

// vec returns vector i of a slab, capped so an append cannot spill into i+1.
func (k *krylovWork) vec(slab []float64, i int) []float64 {
	return slab[i*k.n : (i+1)*k.n : (i+1)*k.n]
}

// mergeParts folds the chunk-major partials part[c·stride+i] into
// h[i] (i < len(h)) in ascending chunk order.
func (k *krylovWork) mergeParts(h []float64, stride int) {
	for i := range h {
		h[i] = 0
	}
	for c := 0; c < k.chunks; c++ {
		p := k.part[c*stride : c*stride+len(h)]
		for i, v := range p {
			h[i] += v
		}
	}
}

// dotChunk stores this chunk's partials of Vᵀx for the first cnt vectors of
// slab V, four basis vectors per pass over x[lo:hi].
func (k *krylovWork) dotChunk(V []float64, cnt int, x []float64, lo, hi int) {
	n, xs := k.n, x[lo:hi]
	p := k.part[(lo/reorthGrain)*cnt:][:cnt]
	i := 0
	for ; i+4 <= cnt; i += 4 {
		v0 := V[i*n+lo:][:len(xs)]
		v1 := V[(i+1)*n+lo:][:len(xs)]
		v2 := V[(i+2)*n+lo:][:len(xs)]
		v3 := V[(i+3)*n+lo:][:len(xs)]
		var s0, s1, s2, s3 float64
		for r, xv := range xs {
			s0 += v0[r] * xv
			s1 += v1[r] * xv
			s2 += v2[r] * xv
			s3 += v3[r] * xv
		}
		p[i], p[i+1], p[i+2], p[i+3] = s0, s1, s2, s3
	}
	for ; i < cnt; i++ {
		v0 := V[i*n+lo:][:len(xs)]
		s := 0.0
		for r, xv := range xs {
			s += v0[r] * xv
		}
		p[i] = s
	}
}

// axpyChunk sets x[lo:hi] −= V·h over the first len(h) vectors of slab V,
// four basis vectors per pass over x[lo:hi].
func (k *krylovWork) axpyChunk(V, h, x []float64, lo, hi int) {
	n, xs := k.n, x[lo:hi]
	i := 0
	for ; i+4 <= len(h); i += 4 {
		h0, h1, h2, h3 := h[i], h[i+1], h[i+2], h[i+3]
		v0 := V[i*n+lo:][:len(xs)]
		v1 := V[(i+1)*n+lo:][:len(xs)]
		v2 := V[(i+2)*n+lo:][:len(xs)]
		v3 := V[(i+3)*n+lo:][:len(xs)]
		for r, xv := range xs {
			xs[r] = xv - h0*v0[r] - h1*v1[r] - h2*v2[r] - h3*v3[r]
		}
	}
	for ; i < len(h); i++ {
		h0 := h[i]
		v0 := V[i*n+lo:][:len(xs)]
		for r, xv := range xs {
			xs[r] = xv - h0*v0[r]
		}
	}
}

// reorth orthogonalizes x against the first cnt (orthonormal) vectors of
// slab V with classical Gram–Schmidt applied twice (CGS2): each pass forms
// h = Vᵀx, then x −= V·h. It returns the first pass's coefficients — for
// x = Op·v_j these are the projected-matrix entries H[i,j] = ⟨v_i, Op·v_j⟩ —
// and ‖x‖ after the second pass, which removes the round-off the first one
// leaves. The first pass's update and the second pass's dot products share
// one sweep, so each chunk of V is reread while it is still in cache.
func (k *krylovWork) reorth(V []float64, cnt int, x []float64) ([]float64, float64) {
	parallel.For(k.n, reorthGrain, func(lo, hi int) {
		k.dotChunk(V, cnt, x, lo, hi)
	})
	first := k.h0[:cnt]
	k.mergeParts(first, cnt)
	parallel.For(k.n, reorthGrain, func(lo, hi int) {
		k.axpyChunk(V, first, x, lo, hi)
		k.dotChunk(V, cnt, x, lo, hi)
	})
	second := k.h[:cnt]
	k.mergeParts(second, cnt)
	parallel.For(k.n, reorthGrain, func(lo, hi int) {
		k.axpyChunk(V, second, x, lo, hi)
		s := 0.0
		for _, xv := range x[lo:hi] {
			s += xv * xv
		}
		k.sq[lo/reorthGrain] = s
	})
	s := 0.0
	for _, v := range k.sq {
		s += v
	}
	return first, math.Sqrt(s)
}

// ritzVectors sets vector i of slab dst (i < keep) to the normalized Ritz
// vector Σ_j z[j, q−1−i]·v_j over the first q basis vectors, i.e. the Ritz
// vectors of the keep largest Ritz values, largest first. Every row is summed
// in ascending j; each chunk builds four Ritz vectors per pass over a basis
// vector.
func (k *krylovWork) ritzVectors(dst []float64, q int, z []float64, keep int) {
	n, V := k.n, k.basis
	parallel.For(n, reorthGrain, func(lo, hi int) {
		rows := hi - lo
		i := 0
		for ; i+4 <= keep; i += 4 {
			d0 := dst[i*n+lo:][:rows]
			d1 := dst[(i+1)*n+lo:][:rows]
			d2 := dst[(i+2)*n+lo:][:rows]
			d3 := dst[(i+3)*n+lo:][:rows]
			clear(d0)
			clear(d1)
			clear(d2)
			clear(d3)
			for j := 0; j < q; j++ {
				zr := z[j*q : (j+1)*q]
				c0, c1, c2, c3 := zr[q-1-i], zr[q-2-i], zr[q-3-i], zr[q-4-i]
				for r, v := range V[j*n+lo:][:rows] {
					d0[r] += c0 * v
					d1[r] += c1 * v
					d2[r] += c2 * v
					d3[r] += c3 * v
				}
			}
		}
		for ; i < keep; i++ {
			d0 := dst[i*n+lo:][:rows]
			clear(d0)
			for j := 0; j < q; j++ {
				c0 := z[j*q+q-1-i]
				for r, v := range V[j*n+lo:][:rows] {
					d0[r] += c0 * v
				}
			}
		}
		p := k.part[(lo/reorthGrain)*keep:][:keep]
		for i := range p {
			s := 0.0
			for _, v := range dst[i*n+lo:][:rows] {
				s += v * v
			}
			p[i] = s
		}
	})
	inv := k.h[:keep]
	k.mergeParts(inv, keep)
	for i, s := range inv {
		if s > 0 {
			inv[i] = 1 / math.Sqrt(s)
		} else {
			inv[i] = 1
		}
	}
	parallel.For(n, reorthGrain, func(lo, hi int) {
		for i, f := range inv {
			d := dst[i*n+lo : i*n+hi]
			for r := range d {
				d[r] *= f
			}
		}
	})
}
