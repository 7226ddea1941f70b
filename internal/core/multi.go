package core

import (
	"context"
	"fmt"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// MultiResult reports a batched user-query evaluation: up to 64 queries
// of the same problem evaluated simultaneously under one combined
// frontier — the batch-mode execution of §4.5 applied to *user* queries.
// Each query is still Δ-initialized from its own best standing root, so
// the batch keeps the full incremental benefit while touching the graph
// and value arrays once instead of per query.
type MultiResult struct {
	Problem string
	Sources []graph.VertexID
	// Values is the K-wide array: Values[x*Width+j] is query j's value
	// at vertex x.
	Values []uint64
	Width  int
	Stats  engine.Stats
	// Slots and PropURs record each query's chosen standing root.
	Slots   []int
	PropURs []uint64
	Elapsed time.Duration
	// Version is the snapshot version the batch evaluated against.
	Version uint64
}

// Value returns query slot j's value at vertex x.
func (r *MultiResult) Value(x graph.VertexID, j int) uint64 {
	return r.Values[int(x)*r.Width+j]
}

// multiQuerier is implemented by handlers whose problems support batched
// user queries (the six simple triangle problems and custom problems).
type multiQuerier interface {
	queryMulti(ctx context.Context, s *System, sources []graph.VertexID) (*MultiResult, error)
}

// QueryMany evaluates up to 64 same-problem user queries in one batched
// Δ-based evaluation. The result values are identical to issuing each
// Query separately; the work is the batch-mode coalesced version.
func (s *System) QueryMany(problem string, sources []graph.VertexID) (*MultiResult, error) {
	return s.QueryManyCtx(context.Background(), problem, sources)
}

// QueryManyCtx is QueryMany with cooperative cancellation: one deadline
// covers the whole batch (the batch runs under a single combined
// frontier, so per-query cancellation is not meaningful).
func (s *System) QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*MultiResult, error) {
	h, err := s.lookup(problem)
	if err != nil {
		return nil, err
	}
	mq, ok := h.(multiQuerier)
	if !ok {
		return nil, fmt.Errorf("core: problem %q does not support batched user queries", problem)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if len(sources) > 64 {
		return nil, fmt.Errorf("core: at most 64 queries per batch (got %d)", len(sources))
	}
	for _, u := range sources {
		if err := s.checkSource(u); err != nil {
			return nil, err
		}
		s.observe(u)
	}
	return mq.queryMulti(ctx, s, sources)
}

func (h *simpleHandler) queryMulti(ctx context.Context, s *System, sources []graph.VertexID) (*MultiResult, error) {
	start := time.Now()
	p := h.mgr.Problem
	w := len(sources)
	res := &MultiResult{
		Problem: p.Name(), Sources: sources, Width: w,
		Slots: make([]int, w), PropURs: make([]uint64, w),
	}
	var st *engine.State
	view, release, err := s.pinShared(func(g engine.View) error {
		n := g.NumVertices()
		st = engine.NewState(p, n, w)
		// Δ-initialize each slot from its own best standing root,
		// straight from the standing state into the slot's strided view
		// (every layout has one). Each slot is an O(N) parallel pass, so
		// cancellation is honored between slots too.
		for j, u := range sources {
			if err := ctx.Err(); err != nil {
				return &engine.CanceledError{Cause: err}
			}
			arr, stride, off := st.StrideView(j)
			res.Slots[j], res.PropURs[j] = h.mgr.DeltaInto(arr, stride, off, n, u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	seeds, masks := sourceSeeds(sources)
	res.Stats, err = st.RunPushCtx(ctx, view, seeds, masks)
	if err != nil {
		return nil, err
	}
	res.Values = st.Interleaved()
	res.Version = viewVersion(view)
	res.Elapsed = time.Since(start)
	return res, nil
}
