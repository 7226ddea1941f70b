package core

import (
	"context"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
)

// rebuilder is implemented by handlers that can recover from
// non-monotone graph changes (edge deletions) by re-evaluating their
// standing state from scratch.
type rebuilder interface {
	rebuild(g engine.View) engine.Stats
}

// trimmer is implemented by handlers that support KickStarter-style
// trimmed deletion recovery (package standing): only the value slots
// whose derivation witnessed a deleted arc are reset and re-derived,
// instead of a full re-evaluation.
type trimmer interface {
	recoverDeletions(g engine.View, deleted []graph.Edge, undirected bool) engine.Stats
}

// ApplyDeletions removes a batch of edges from the streaming graph and
// recovers every enabled standing query.
//
// Deletions break the monotonicity that incremental resumption depends
// on (a converged distance may now be *too good*). Handlers that track
// the triangle problems recover with witness-based trimming (reset and
// re-derive only values that depended on a deleted arc — the
// KickStarter idea the paper cites); the whole-graph handlers
// re-evaluate from scratch, which is always sound.
func (s *System) ApplyDeletions(batch []graph.Edge) BatchReport {
	rep, _ := s.ApplyDeletionsCtx(context.Background(), batch)
	return rep
}

// ApplyDeletionsCtx is ApplyDeletions with context-based admission: like
// ApplyBatchCtx, cancellation is honored only before the mutation begins;
// once started, deletion recovery always completes so the standing state
// stays converged for its snapshot version.
func (s *System) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := ctx.Err(); err != nil {
		return BatchReport{}, &engine.CanceledError{Cause: err}
	}
	// Exclusive before DeleteEdges publishes: deletions make converged
	// standing values potentially *too good*, so no reader may pair
	// pre-recovery standing bounds with the post-deletion snapshot.
	s.stMu.Lock()
	defer s.stMu.Unlock()
	parent := s.cur
	// Resolve each requested arc to its stored weight before the graph
	// forgets it. Deletion requests identify arcs by endpoints (the
	// serving layer's /v1/delete lets clients omit the weight entirely),
	// but the trimmed recovery's witness test compares Relax(val(a), w)
	// against val(b) using the deleted arc's weight — seeding it with a
	// phantom weight matches nothing, skips the taint, and leaves
	// stale-too-good standing values behind.
	resolved := resolveDeletionWeights(parent, batch)
	snap, changed := s.G.DeleteEdges(batch)
	rep := BatchReport{
		BatchEdges:     len(batch),
		ChangedSources: len(changed),
		Version:        snap.Version(),
	}
	start := time.Now()
	if len(changed) > 0 {
		undirected := !s.G.Directed()
		// Deletions invalidate span reuse (an unchanged vertex's span may
		// alias arcs that no longer exist downstream of it), so the mirror
		// is rebuilt in full — the data-structure analogue of the standing
		// Rebuild recovery path.
		view := s.viewOf(snap)
		for _, name := range s.order {
			switch h := s.handlers[name].(type) {
			case trimmer:
				rep.StandingStats.Add(h.recoverDeletions(view, resolved, undirected))
			case rebuilder:
				rep.StandingStats.Add(h.rebuild(view))
			}
		}
		sr := s.refreshSubscriptions(view)
		rep.Subscribers, rep.FramesSent, rep.FramesDropped, rep.RefreshElapsed =
			sr.subscribers, sr.sent, sr.dropped, sr.elapsed
	}
	// With an empty changed list the graph content is identical, so
	// subscribers have nothing to learn and cached answers are merely
	// re-stamped to the new version (cacheAdvance handles both cases).
	rep.StandingElapsed = time.Since(start)
	s.cacheAdvance(changed, prevVersion(parent, snap), snap.Version())
	s.advance(parent, snap)
	return rep, nil
}

// resolveDeletionWeights returns batch with each arc's weight replaced
// by the weight the pre-deletion snapshot actually stores for it. Arcs
// the snapshot does not contain keep their requested weight — they
// delete nothing, so at worst they over-taint, which is sound. On
// undirected graphs the mirror arc carries the same weight, so the
// forward lookup alone resolves every existing edge.
func resolveDeletionWeights(view engine.View, batch []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), batch...)
	n := view.NumVertices()
	// Group requests by source so each adjacency list is walked once.
	bySrc := make(map[graph.VertexID][]int, len(out))
	for i := range out {
		if int(out[i].Src) < n {
			bySrc[out[i].Src] = append(bySrc[out[i].Src], i)
		}
	}
	for src, idxs := range bySrc {
		view.ForEachOut(src, func(d graph.VertexID, w graph.Weight) {
			for _, i := range idxs {
				if out[i].Dst == d {
					out[i].W = w
				}
			}
		})
	}
	return out
}

func (h *simpleHandler) recoverDeletions(g engine.View, deleted []graph.Edge, undirected bool) engine.Stats {
	return h.mgr.UpdateDeletions(g, deleted, undirected)
}

func (h *radiiHandler) recoverDeletions(g engine.View, deleted []graph.Edge, undirected bool) engine.Stats {
	return h.mgr.UpdateDeletions(g, deleted, undirected)
}

func (h *ssnspHandler) recoverDeletions(g engine.View, deleted []graph.Edge, undirected bool) engine.Stats {
	start := time.Now()
	stats := h.mgr.UpdateDeletions(g, deleted, undirected)
	h.recount(g)
	h.last = time.Since(start)
	return stats
}

func (h *pageRankHandler) rebuild(g engine.View) engine.Stats {
	start := time.Now()
	res := props.PageRank(g, 0.85, 100, 1e-9)
	h.ranks = res.Ranks
	h.version = viewVersion(g)
	h.last = time.Since(start)
	return engine.Stats{Iterations: res.Iterations}
}

func (h *ccHandler) rebuild(g engine.View) engine.Stats {
	start := time.Now()
	st, stats := props.ConnectedComponents(g)
	h.st = st
	h.version = viewVersion(g)
	h.last = time.Since(start)
	return stats
}
