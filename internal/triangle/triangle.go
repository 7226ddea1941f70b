// Package triangle implements the graph triangle inequality abstraction of
// §3 and the Δ-based incremental initialization of §4.1 of the paper.
//
// Given a standing query q(r) whose converged property array holds
// property(r, x) for every x, and the scalar property(u, r) linking the
// user query's source u to r, the Δ initialization
//
//	Δ(u,r)[x] = property(u,r) ⊕ property(r,x)
//
// is, by the problem's triangle inequality, never better than the true
// converged value property(u,x). Seeding a monotonic, async-safe
// evaluation with Δ(u,r) therefore converges to exactly the same result
// as a from-scratch evaluation (Theorem 4.4), usually after far less work.
package triangle

import (
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// DeltaInit materializes Δ(u,r) for a user query with source u: for each
// vertex x, Combine(propUR, standing[x]). standing must hold
// property(r, x) for all x. The source vertex u is reset to the
// problem's source value, and r's own entry becomes
// Combine(propUR, property(r,r)).
//
// The returned slice is freshly allocated and suitable as the Values of a
// K=1 engine.State.
func DeltaInit(p engine.Problem, u graph.VertexID, propUR uint64, standing []uint64) []uint64 {
	init := make([]uint64, len(standing))
	DeltaInitStrided(init, 1, 0, standing, 1, 0, len(standing), p, u, propUR, false)
	return init
}

// DeltaInitStrided is the one Δ-initialization pass every query path
// uses. Both sides are zero-copy strided views in the shape of
// engine.State.StrideView — vertex x of the standing column is
// src[x*srcStride+srcOff] and its destination is dst[x*dstStride+dstOff]
// — so the standing state is read in place and the destination may be
// one slot of a width-K state: no column is materialized on either side.
// The pass covers vertices [0, n) in parallel.
//
// Without merge it writes Combine(propUR, standing(x)) and then resets u
// to the problem's source value: a fresh Δ(u,r). With merge it keeps the
// better of the current destination value and the Δ bound and leaves u
// alone, folding one more standing bound into an existing init.
func DeltaInitStrided(dst []uint64, dstStride, dstOff int, src []uint64, srcStride, srcOff, n int,
	p engine.Problem, u graph.VertexID, propUR uint64, merge bool) {
	parallel.ForRange(n, 4096, func(lo, hi int) {
		d, s := dstOff+lo*dstStride, srcOff+lo*srcStride
		for x := lo; x < hi; x++ {
			cand := p.Combine(propUR, src[s])
			if !merge || p.Better(cand, dst[d]) {
				dst[d] = cand
			}
			d += dstStride
			s += srcStride
		}
	})
	if !merge && int(u) < n {
		dst[int(u)*dstStride+dstOff] = p.SourceValue()
	}
}

// Holds verifies the triangle inequality for one concrete triple:
// property(u,x) must be at least as good as Combine(property(u,r),
// property(r,x)) — i.e. the combined value must NOT be strictly better
// than the direct one. Used by tests and available for runtime audits.
func Holds(p engine.Problem, propUR, propRX, propUX uint64) bool {
	combined := p.Combine(propUR, propRX)
	return !p.Better(combined, propUX)
}

// SelectStanding implements the runtime standing-query pick of Eq. 15:
// among the K standing queries, choose the one whose property(u, r_k) is
// best under the problem's order. propUR[k] must hold property(u, r_k)
// (for directed graphs, taken from the reversed standing state q⁻¹).
// It returns the chosen slot and its property value. If every candidate
// is at the init value (u cannot reach any standing root), slot 0 is
// returned with the init value — Δ then degenerates to the default
// initialization and the evaluation is effectively from scratch, which is
// still correct.
func SelectStanding(p engine.Problem, propUR []uint64) (slot int, val uint64) {
	slot, val = 0, propUR[0]
	for k := 1; k < len(propUR); k++ {
		if p.Better(propUR[k], val) {
			slot, val = k, propUR[k]
		}
	}
	return slot, val
}
