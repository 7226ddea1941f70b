package main

import (
	"context"
	"fmt"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// replica composes streamgraph → standing → triangle → engine through
// their public functions the way core does, with one caller and no
// locks, so each layer's calls can be timed from the benchmark's own
// code. standing.Manager.DeltaFor is the triangle step: it selects the
// best standing root and calls triangle.DeltaInit.
type replica struct {
	g        *streamgraph.Graph
	directed bool
	cur      *streamgraph.Snapshot
	mgrs     map[string]*standing.Manager
	mirror   *streamgraph.MirrorMetrics
	rec      *recorder // nil records nothing
}

// replicaOrder is the server's enable order for its default problems.
var replicaOrder = []string{"SSWP", "SSSP", "BFS"}

func newReplica(n int, directed bool, initial []graph.Edge, rec *recorder) *replica {
	r := &replica{
		g: streamgraph.New(n, directed), directed: directed,
		mgrs: map[string]*standing.Manager{}, mirror: streamgraph.NewMirrorMetrics(), rec: rec,
	}
	r.g.SetMirrorMetrics(r.mirror)
	r.cur, _ = r.g.InsertEdges(initial)
	sp := rec.begin("streamgraph.flatten_full", 0, -1)
	view := r.cur.Flatten()
	rec.end(sp)
	roots := core.TopDegreeRoots(r.cur, core.DefaultK)
	reg := props.Registry()
	for _, name := range replicaOrder {
		r.mgrs[name] = standing.New(reg[name], view, roots, directed)
	}
	return r
}

// queryOut is one replica answer and the engine work it took.
type queryOut struct {
	values  []uint64
	version uint64
	stats   engine.Stats
	push    time.Duration
}

// query answers a Δ-initialized user query: pin the current mirror,
// Δ-initialize from the best standing query, run the K=1 push kernel.
func (r *replica) query(ctx context.Context, req uint64, parent int, problem string, u graph.VertexID) (queryOut, error) {
	mgr := r.mgrs[problem]
	sp := r.rec.begin("streamgraph.pin", req, parent)
	f := r.g.Acquire().Flatten()
	if !f.Retain() {
		r.rec.end(sp)
		return queryOut{}, fmt.Errorf("replica: current mirror of version %d is retired", r.g.Acquire().Version())
	}
	defer f.Release()
	r.rec.end(sp)

	sp = r.rec.begin("standing.delta_for."+problem, req, parent)
	init, _, _ := mgr.DeltaFor(u)
	r.rec.end(sp)

	sp = r.rec.begin("engine.push."+problem, req, parent)
	start := time.Now()
	st := &engine.State{P: mgr.Problem, K: 1, N: len(init), Values: init}
	stats, err := st.RunPushCtx(ctx, f, []graph.VertexID{u}, []uint64{1})
	push := time.Since(start)
	r.rec.end(sp)
	if err != nil {
		return queryOut{}, err
	}
	return queryOut{values: st.Values, version: f.Version(), stats: stats, push: push}, nil
}

// insert applies one batch: tree insert, delta-patched mirror, then
// incremental maintenance of every standing query.
func (r *replica) insert(req uint64, parent int, batch []graph.Edge) (uint64, engine.Stats) {
	prev := r.cur
	sp := r.rec.begin("streamgraph.insert", req, parent)
	snap, changed := r.g.InsertEdges(batch)
	r.rec.end(sp)

	var view *streamgraph.Flat
	if pf := prev.BuiltFlat(); pf != nil {
		sp = r.rec.begin("streamgraph.flatten_from", req, parent)
		view = snap.FlattenFrom(pf, changed)
	} else {
		sp = r.rec.begin("streamgraph.flatten_full", req, parent)
		view = snap.Flatten()
	}
	r.rec.end(sp)

	var stats engine.Stats
	for _, name := range replicaOrder {
		sp = r.rec.begin("standing.update", req, parent)
		stats.Add(r.mgrs[name].Update(view, changed))
		r.rec.end(sp)
	}
	prev.RetireFlat()
	r.cur = snap
	return snap.Version(), stats
}

// remove applies one deletion batch: resolve the stored weights, delete
// from the tree, rebuild the mirror in full, and run trimmed recovery.
func (r *replica) remove(req uint64, parent int, batch []graph.Edge) (uint64, engine.Stats) {
	prev := r.cur
	resolved := storedWeights(prev.Flatten(), batch)
	sp := r.rec.begin("streamgraph.delete", req, parent)
	snap, changed := r.g.DeleteEdges(batch)
	r.rec.end(sp)

	var stats engine.Stats
	if len(changed) > 0 {
		sp = r.rec.begin("streamgraph.flatten_full", req, parent)
		view := snap.Flatten()
		r.rec.end(sp)
		for _, name := range replicaOrder {
			sp = r.rec.begin("standing.update_deletions", req, parent)
			stats.Add(r.mgrs[name].UpdateDeletions(view, resolved, !r.directed))
			r.rec.end(sp)
		}
	}
	prev.RetireFlat()
	r.cur = snap
	return snap.Version(), stats
}

// storedWeights replaces each requested edge's weight with the weight
// the graph stores for that arc, which trimmed recovery's witness test
// needs; absent arcs keep the requested weight.
func storedWeights(view engine.View, batch []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), batch...)
	for i := range out {
		if int(out[i].Src) >= view.NumVertices() {
			continue
		}
		view.ForEachOut(out[i].Src, func(d graph.VertexID, w graph.Weight) {
			if d == out[i].Dst {
				out[i].W = w
			}
		})
	}
	return out
}
