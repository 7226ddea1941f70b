// Package core implements the Tripoline system (§5): a shared-memory
// streaming graph processing system that supports generalized incremental
// evaluation of vertex-specific queries without a priori knowledge of
// their source vertices.
//
// The system composes four components, mirroring Figure 10 of the paper:
//
//   - the streaming graph engine (package streamgraph, Aspen-like);
//   - the standing query evaluation module (package standing), which
//     incrementally maintains K pre-selected queries per enabled problem;
//   - the user query evaluation module, which answers arbitrary-source
//     queries via Δ-based incremental evaluation (package triangle);
//   - the programming interface: engine.Problem supplies the vertex
//     function plus the ⊕ / ⪰ triangle operators.
//
// The three runtime activities — applying graph updates, re-stabilizing
// standing queries, evaluating user queries — execute exclusively (in
// series), each internally parallel, exactly the configuration described
// in §5.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// DefaultK is the default number of standing queries per problem (§6.1).
const DefaultK = 16

// QueryResult reports one user-query evaluation.
type QueryResult struct {
	Problem string
	Source  graph.VertexID
	// Values holds the converged per-vertex values: width 1 for the six
	// simple problems, width props.RadiiWidth for Radii, and the BFS
	// levels for SSNSP.
	Values []uint64
	Width  int
	// Counts holds SSNSP's number-of-shortest-paths array (nil otherwise).
	Counts []uint64
	// Radius is Radii's scalar estimate (0 otherwise).
	Radius uint64
	// Stats is the engine work; for SSNSP it sums both rounds, with the
	// counting round also available separately.
	Stats      engine.Stats
	CountStats engine.Stats
	Elapsed    time.Duration
	// Incremental reports whether Δ-based initialization was used.
	Incremental bool
	// StandingSlot and PropUR record the chosen standing query (Eq. 15)
	// for incremental runs of the simple problems.
	StandingSlot int
	PropUR       uint64
	// Version is the snapshot version the result is valid for: the pinned
	// view's version for vertex-specific problems, the version the
	// standing state last converged at for the whole-graph problems, and
	// the requested version for QueryAt.
	Version uint64
	// versionSet marks handlers that stamped Version themselves (the
	// whole-graph handlers answer from standing state, whose version can
	// trail or lead the pinned view under concurrent writes).
	versionSet bool
}

// BatchReport summarizes one applied update batch.
type BatchReport struct {
	BatchEdges      int
	ChangedSources  int
	StandingElapsed time.Duration
	StandingStats   engine.Stats
	Version         uint64
	// Subscription fan-out for this batch: registered subscribers at
	// refresh time, frames delivered, frames dropped on full channels,
	// and the wall time of the fused refresh (zero with no subscribers).
	Subscribers    int
	FramesSent     int
	FramesDropped  int
	RefreshElapsed time.Duration
}

// handler is the per-problem strategy: simple triangle problems, Radii,
// SSNSP, and the whole-graph queries each maintain and answer differently.
// Query evaluation takes the request context and stops at the engine's
// superstep boundaries when it is canceled; standing maintenance (update)
// deliberately does not — a half-maintained standing set would desync
// from its snapshot version, so updates always run to completion.
type handler interface {
	update(g engine.View, changed []graph.VertexID) engine.Stats
	lastMaintain() time.Duration
	// queryDelta answers a Δ-initialized query. It receives the System
	// (not a pinned view) because pinning and Δ-initialization must
	// happen atomically with respect to mutations — see pinShared.
	queryDelta(ctx context.Context, s *System, u graph.VertexID) (*QueryResult, error)
	queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error)
}

// System is a Tripoline instance over one streaming graph.
type System struct {
	G        *streamgraph.Graph
	K        int
	handlers map[string]handler
	// order preserves enable order for deterministic iteration.
	order []string
	// hist, when non-nil, records user-query sources for
	// ReselectRoots (see RecordQueries).
	hist *standing.QueryHistogram
	// history, when non-nil, retains past snapshots for QueryAt
	// (see EnableHistory).
	history *streamgraph.History
	// flatten selects the evaluation view handed to the engine: the
	// snapshot's flat CSR mirror (default) or the C-tree directly.
	flatten bool
	// cur is the snapshot produced by the most recent mutation through
	// this system (initially the construction-time snapshot). The single
	// writer uses it to delta-patch the next version's mirror from the
	// parent's and to retire the parent's slabs afterwards; query paths
	// never read it.
	cur *streamgraph.Snapshot
	// stMu serializes standing-state access between the (single) writer
	// and concurrent readers: mutations hold it exclusively across the
	// publish + maintenance window, queries hold it shared only while
	// Δ-initializing out of the standing arrays (never across an engine
	// run, so reader parallelism is preserved). Taking the write lock
	// *before* the graph mutation also keeps deletions sound: a reader can
	// never pair pre-deletion standing bounds (possibly too good) with a
	// post-deletion snapshot.
	stMu sync.RWMutex
	// cache, when non-nil, is the Δ-result cache (see cache.go).
	cache *resultCache
	// subMu guards the subscription registry (see subscribe.go). Lock
	// order: stMu before subMu — the writer refreshes subscriptions
	// inside its exclusive window.
	subMu  sync.Mutex
	subs   map[uint64]*Subscription
	subSeq uint64
}

// NewSystem wraps a streaming graph. k is the number of standing queries
// per problem (clamped to [1, 64]; 0 selects DefaultK).
func NewSystem(g *streamgraph.Graph, k int) *System {
	if k == 0 {
		k = DefaultK
	}
	if k < 1 {
		k = 1
	}
	if k > 64 {
		k = 64
	}
	return &System{G: g, K: k, handlers: make(map[string]handler), flatten: true, cur: g.Acquire()}
}

// SetFlatten toggles the flat-adjacency fast path. When on (the default)
// every standing maintenance pass and user query evaluates over the
// snapshot's flat CSR mirror (built once per snapshot version, shared by
// all readers, dropped with the snapshot); when off the engine walks the
// C-tree directly. Results are identical either way — the toggle exists
// for the `-ablate flat` experiment and for memory-constrained runs that
// would rather not hold the mirror.
func (s *System) SetFlatten(on bool) { s.flatten = on }

// viewOf returns the engine view of snap under the current flatten
// setting. Flatten is cached per snapshot (sync.Once), so repeated calls
// against one version pay the build exactly once. Writer-side only —
// query paths use pinView, which holds a reference against concurrent
// slab recycling.
func (s *System) viewOf(snap *streamgraph.Snapshot) engine.View {
	if s.flatten {
		return snap.Flatten()
	}
	return snap
}

// updateView returns the evaluation view for the standing maintenance
// that follows an insertion batch. On the flat path the new snapshot's
// mirror is delta-patched from the parent version's mirror using the
// batch's changed-source list — O(|changed| + Δdegree + memcpy) instead
// of a full O(V+E) walk — falling back to a full build when the parent
// mirror was never materialized (FlattenFrom itself also falls back if
// the delta preconditions don't hold, e.g. after out-of-band mutations).
func (s *System) updateView(parent, snap *streamgraph.Snapshot, changed []graph.VertexID) engine.View {
	if !s.flatten {
		return snap
	}
	if parent != nil {
		if pf := parent.BuiltFlat(); pf != nil {
			return snap.FlattenFrom(pf, changed)
		}
	}
	return snap.Flatten()
}

// advance publishes snap as the system's current version: the parent's
// mirror (if any) is retired so its slabs recycle into future builds —
// queries that pinned it keep it alive until they release — and history,
// when enabled, records the new snapshot.
func (s *System) advance(parent, snap *streamgraph.Snapshot) {
	s.cur = snap
	if parent != nil && parent != snap {
		parent.RetireFlat()
	}
	s.recordHistory()
}

// pinView acquires the evaluation view for one user query together with
// its release callback. On the flat path the mirror is pinned
// (Flat.Retain) so the writer retiring the snapshot mid-query cannot
// recycle the slabs under the reader; a failed pin means a batch
// retired the mirror between Acquire and Retain, so re-acquiring
// observes the newer version. The tree view needs no pin — C-tree nodes
// are immutable and garbage-collected.
func (s *System) pinView() (engine.View, func()) {
	if s.flatten {
		for attempt := 0; attempt < 2; attempt++ {
			snap := s.G.Acquire()
			if f := snap.Flatten(); f.Retain() {
				return f, f.Release
			}
		}
		// Two consecutive retirements mid-acquire: serve this query from
		// the tree rather than loop against a hot writer.
	}
	return s.G.Acquire(), releaseNoop
}

func releaseNoop() {}

// pinShared pins an evaluation view whose version is consistent with the
// standing state and runs initFn while the standing read lock is held:
// under the shared lock no mutation is inside its publish+maintain
// window (ApplyBatchCtx/ApplyDeletionsCtx hold the write lock across
// both), so the latest snapshot and the standing arrays describe the
// same version. Without this pairing a reader could pin a pre-insertion
// snapshot and then Δ-initialize from post-insertion standing bounds —
// bounds that are *too good* for the pinned view, which monotone
// relaxation can never repair. initFn must copy whatever it needs out of
// the standing state and must not run the engine; the caller runs the
// engine on the returned (pinned) view after pinShared returns, outside
// the lock, so reader parallelism is preserved.
func (s *System) pinShared(initFn func(engine.View) error) (engine.View, func(), error) {
	s.stMu.RLock()
	defer s.stMu.RUnlock()
	view, release := s.pinView()
	if err := initFn(view); err != nil {
		release()
		return nil, nil, err
	}
	return view, release, nil
}

// viewVersion reports the snapshot version an evaluation view mirrors
// (0 for unversioned views, which only occur in tests).
func viewVersion(g engine.View) uint64 {
	if v, ok := g.(engine.Versioned); ok {
		return v.Version()
	}
	return 0
}

// TopDegreeRoots returns the top-k out-degree vertices of the snapshot —
// the topology-based standing query selection (Eq. 14).
func TopDegreeRoots(s *streamgraph.Snapshot, k int) []graph.VertexID {
	n := s.NumVertices()
	ids := make([]int, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		ids[v] = v
		deg[v] = s.Degree(graph.VertexID(v))
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k > n {
		k = n
	}
	out := make([]graph.VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = graph.VertexID(ids[i])
	}
	return out
}

// Enable sets up standing queries for the named problem ("BFS", "SSSP",
// "SSWP", "SSNP", "Viterbi", "SSR", "Radii", "SSNSP", "PageRank", "CC")
// by fully evaluating them on the current snapshot.
func (s *System) Enable(name string) error {
	if _, dup := s.handlers[name]; dup {
		return fmt.Errorf("core: problem %s already enabled", name)
	}
	snap := s.G.Acquire()
	roots := TopDegreeRoots(snap, s.K)
	view := s.viewOf(snap)
	var h handler
	switch name {
	case "BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "SSR":
		p := props.Registry()[name]
		h = &simpleHandler{mu: &s.stMu, mgr: standing.New(p, view, roots, s.G.Directed())}
	case "Radii":
		h = newRadiiHandler(&s.stMu, view, roots, s.G.Directed())
	case "SSNSP":
		h = newSSNSPHandler(&s.stMu, view, roots, s.G.Directed())
	case "PageRank":
		h = newPageRankHandler(&s.stMu, view)
	case "CC":
		h = newCCHandler(&s.stMu, view)
	default:
		return fmt.Errorf("core: unknown problem %q: %w", name, ErrUnknownProblem)
	}
	s.handlers[name] = h
	s.order = append(s.order, name)
	// The enable-time snapshot becomes the delta-patch parent of the
	// first batch (its mirror was just materialized by viewOf above).
	s.cur = snap
	return nil
}

// EnableCustom sets up standing queries for a user-defined problem: any
// engine.Problem whose Relax is monotonic and async-safe and whose
// Combine/Better satisfy the graph triangle inequality for the property
// it computes (Definition 3.1) gets the full Δ-based treatment — the
// programming interface of §5. The problem is registered under
// p.Name(), which must not collide with an enabled problem.
func (s *System) EnableCustom(p engine.Problem) error {
	name := p.Name()
	if _, dup := s.handlers[name]; dup {
		return fmt.Errorf("core: problem %s already enabled", name)
	}
	snap := s.G.Acquire()
	roots := TopDegreeRoots(snap, s.K)
	s.handlers[name] = &simpleHandler{mu: &s.stMu, mgr: standing.New(p, s.viewOf(snap), roots, s.G.Directed())}
	s.order = append(s.order, name)
	s.cur = snap
	return nil
}

// Enabled lists enabled problems in enable order.
func (s *System) Enabled() []string { return append([]string(nil), s.order...) }

// ApplyBatch inserts an edge batch into the streaming graph and
// incrementally re-stabilizes every enabled standing query.
func (s *System) ApplyBatch(batch []graph.Edge) BatchReport {
	rep, _ := s.ApplyBatchCtx(context.Background(), batch)
	return rep
}

// ApplyBatchCtx is ApplyBatch with context-based admission: a context
// that is already canceled (or past its deadline) rejects the batch
// before any mutation, returning an ErrCanceled-wrapping error. Once the
// insertion begins the batch always runs to completion, standing
// maintenance included — honoring cancellation mid-maintenance would
// leave some problems' standing state stale relative to the new snapshot
// version and silently shrink every later query's Δ warm start, so the
// update path trades cancellation granularity for an invariant: standing
// state is always converged for the version it is paired with.
func (s *System) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := ctx.Err(); err != nil {
		return BatchReport{}, &engine.CanceledError{Cause: err}
	}
	// Exclusive from before the snapshot is published until maintenance
	// finishes: no reader may Δ-initialize from standing state that is
	// mid-rewrite or paired with the wrong version.
	s.stMu.Lock()
	defer s.stMu.Unlock()
	parent := s.cur
	snap, changed := s.G.InsertEdges(batch)
	rep := BatchReport{
		BatchEdges:     len(batch),
		ChangedSources: len(changed),
		Version:        snap.Version(),
	}
	start := time.Now()
	view := s.updateView(parent, snap, changed)
	for _, name := range s.order {
		rep.StandingStats.Add(s.handlers[name].update(view, changed))
	}
	rep.StandingElapsed = time.Since(start)
	sr := s.refreshSubscriptions(view)
	rep.Subscribers, rep.FramesSent, rep.FramesDropped, rep.RefreshElapsed =
		sr.subscribers, sr.sent, sr.dropped, sr.elapsed
	// Release cache pins before advance retires the parent mirror, so its
	// slabs recycle immediately.
	s.cacheAdvance(changed, prevVersion(parent, snap), snap.Version())
	s.advance(parent, snap)
	return rep, nil
}

// prevVersion is the version a mutation superseded. Without a parent
// snapshot (nothing enabled yet) it degenerates to the new version,
// which disables cache re-stamping — there is nothing cached to re-stamp.
func prevVersion(parent, snap *streamgraph.Snapshot) uint64 {
	if parent == nil {
		return snap.Version()
	}
	return parent.Version()
}

// StandingMaintainTime returns the wall time of the named problem's most
// recent standing-query (re-)evaluation.
func (s *System) StandingMaintainTime(name string) (time.Duration, error) {
	h, ok := s.handlers[name]
	if !ok {
		return 0, fmt.Errorf("core: problem %q not enabled: %w", name, ErrUnknownProblem)
	}
	return h.lastMaintain(), nil
}

// lookup resolves an enabled problem's handler.
func (s *System) lookup(name string) (handler, error) {
	h, ok := s.handlers[name]
	if !ok {
		return nil, fmt.Errorf("core: problem %q not enabled: %w", name, ErrUnknownProblem)
	}
	return h, nil
}

// checkSource validates a user-query source against the current graph.
func (s *System) checkSource(u graph.VertexID) error {
	if n := s.G.Acquire().NumVertices(); int(u) >= n {
		return fmt.Errorf("core: source %d out of range (graph has %d vertices): %w",
			u, n, ErrSourceOutOfRange)
	}
	return nil
}

// Query answers a user query with Δ-based incremental evaluation.
func (s *System) Query(name string, u graph.VertexID) (*QueryResult, error) {
	return s.QueryCtx(context.Background(), name, u)
}

// QueryCtx is Query with cooperative cancellation: the engine checks ctx
// at every superstep boundary, so a deadline or a dropped client stops
// the convergence loop promptly and the call returns an
// ErrCanceled-wrapping error. The standing arrays are never touched by a
// user query (Δ-initialization copies out of them), so cancellation at
// any point is safe.
func (s *System) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	h, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if err := s.checkSource(u); err != nil {
		return nil, err
	}
	s.observe(u)
	res, err := h.queryDelta(ctx, s, u)
	if err != nil {
		return nil, err
	}
	s.cacheStore(res)
	return res, nil
}

// QueryFull answers a user query with a from-scratch (non-incremental)
// evaluation — the baseline the paper's speedups compare against.
func (s *System) QueryFull(name string, u graph.VertexID) (*QueryResult, error) {
	return s.QueryFullCtx(context.Background(), name, u)
}

// QueryFullCtx is QueryFull with cooperative cancellation (see QueryCtx).
func (s *System) QueryFullCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	h, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if err := s.checkSource(u); err != nil {
		return nil, err
	}
	view, release := s.pinView()
	defer release()
	res, err := h.queryFull(ctx, view, u)
	if err != nil {
		return nil, err
	}
	res.Version = viewVersion(view)
	res.versionSet = true
	return res, nil
}

// ---------------------------------------------------------------------
// simple problems: BFS, SSSP, SSWP, SSNP, Viterbi, SSR

type simpleHandler struct {
	mu  *sync.RWMutex // the System's stMu; guards mgr's arrays
	mgr *standing.Manager
}

func (h *simpleHandler) update(g engine.View, changed []graph.VertexID) engine.Stats {
	return h.mgr.Update(g, changed)
}

func (h *simpleHandler) lastMaintain() time.Duration { return h.mgr.LastMaintain }

func (h *simpleHandler) queryDelta(ctx context.Context, s *System, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	var (
		init   []uint64
		slot   int
		propUR uint64
	)
	view, release, err := s.pinShared(func(engine.View) error {
		init, slot, propUR = h.mgr.DeltaFor(u)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	st := &engine.State{P: h.mgr.Problem, K: 1, N: len(init), Values: init}
	stats, err := st.RunPushCtx(ctx, view, []graph.VertexID{u}, []uint64{1})
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Problem: h.mgr.Problem.Name(), Source: u,
		Values: st.Values, Width: 1,
		Stats: stats, Elapsed: time.Since(start),
		Incremental: true, StandingSlot: slot, PropUR: propUR,
		Version: viewVersion(view), versionSet: true,
	}, nil
}

func (h *simpleHandler) queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	st, stats, err := engine.RunCtx(ctx, g, h.mgr.Problem, []graph.VertexID{u})
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Problem: h.mgr.Problem.Name(), Source: u,
		Values: st.Values, Width: 1,
		Stats: stats, Elapsed: time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------
// Radii: a 16-wide SSSP whose radius estimate is the largest finite
// distance (Table 1's dist1..dist16). A Radii user query rooted at u runs
// sources {u, h_2..h_16} where the helpers are deterministic in u; each
// slot is Δ-initialized independently via the SSSP triangle.

type radiiHandler struct {
	mu  *sync.RWMutex
	mgr *standing.Manager // SSSP standing queries reused per slot
}

func newRadiiHandler(mu *sync.RWMutex, g engine.View, roots []graph.VertexID, directed bool) *radiiHandler {
	return &radiiHandler{mu: mu, mgr: standing.New(props.SSSP{}, g, roots, directed)}
}

func (h *radiiHandler) update(g engine.View, changed []graph.VertexID) engine.Stats {
	return h.mgr.Update(g, changed)
}

func (h *radiiHandler) lastMaintain() time.Duration { return h.mgr.LastMaintain }

// radiiSources derives the deterministic SSSP sources of a Radii query
// rooted at u over an n-vertex graph: slot 0 is u itself and the
// remaining props.RadiiWidth-1 helpers are a splitmix-style
// sequence seeded by u.
func radiiSources(u graph.VertexID, n int) []graph.VertexID {
	out := make([]graph.VertexID, props.RadiiWidth)
	out[0] = u
	seed := uint64(u)*0x9E3779B97F4A7C15 + 1
	for i := 1; i < len(out); i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = graph.VertexID((seed >> 17) % uint64(n))
	}
	return out
}

func (h *radiiHandler) queryDelta(ctx context.Context, s *System, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	var (
		st      *engine.State
		sources []graph.VertexID
		n, w    int
	)
	view, release, err := s.pinShared(func(g engine.View) error {
		n = g.NumVertices()
		sources = radiiSources(u, n)
		w = len(sources)
		st = engine.NewState(props.SSSP{}, n, w)
		// Δ-initialize each slot from its best standing root, straight
		// into the slot's strided view. Each slot is an O(N) pass, so the
		// 16-slot setup honors cancellation between slots as well as
		// inside the engine run.
		for j, src := range sources {
			if err := ctx.Err(); err != nil {
				return &engine.CanceledError{Cause: err}
			}
			arr, stride, off := st.StrideView(j)
			h.mgr.DeltaInto(arr, stride, off, n, src)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	seeds, masks := sourceSeeds(sources)
	stats, err := st.RunPushCtx(ctx, view, seeds, masks)
	if err != nil {
		return nil, err
	}
	values := st.Interleaved()
	return &QueryResult{
		Problem: "Radii", Source: u,
		Values: values, Width: w,
		Radius: props.RadiiEstimate(values, n, w),
		Stats:  stats, Elapsed: time.Since(start),
		Incremental: true,
		Version:     viewVersion(view), versionSet: true,
	}, nil
}

func (h *radiiHandler) queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	n := g.NumVertices()
	sources := radiiSources(u, n)
	st, stats, err := engine.RunCtx(ctx, g, props.SSSP{}, sources)
	if err != nil {
		return nil, err
	}
	values := st.Interleaved()
	return &QueryResult{
		Problem: "Radii", Source: u,
		Values: values, Width: len(sources),
		Radius: props.RadiiEstimate(values, n, len(sources)),
		Stats:  stats, Elapsed: time.Since(start),
	}, nil
}

// sourceSeeds folds duplicate sources into combined masks.
func sourceSeeds(sources []graph.VertexID) ([]graph.VertexID, []uint64) {
	seeds := make([]graph.VertexID, 0, len(sources))
	masks := make([]uint64, 0, len(sources))
	index := make(map[graph.VertexID]int, len(sources))
	for k, s := range sources {
		if i, ok := index[s]; ok {
			masks[i] |= 1 << uint(k)
			continue
		}
		index[s] = len(seeds)
		seeds = append(seeds, s)
		masks = append(masks, 1<<uint(k))
	}
	return seeds, masks
}

// ---------------------------------------------------------------------
// SSNSP: BFS levels maintained as standing queries (K-wide), per-root
// shortest-path counts recomputed after every batch (counting is not
// incrementally resumable — see props.SSNSPResult). User queries reuse
// the BFS triangle for the level round and recount exactly.

type ssnspHandler struct {
	mu     *sync.RWMutex
	mgr    *standing.Manager // BFS levels
	counts [][]uint64        // per-root counts, refreshed each update
	last   time.Duration
}

func newSSNSPHandler(mu *sync.RWMutex, g engine.View, roots []graph.VertexID, directed bool) *ssnspHandler {
	start := time.Now()
	h := &ssnspHandler{mu: mu, mgr: standing.New(props.BFS{}, g, roots, directed)}
	h.recount(g)
	h.last = time.Since(start)
	return h
}

func (h *ssnspHandler) recount(g engine.View) {
	h.counts = h.counts[:0]
	for k, r := range h.mgr.Roots {
		res := countRoundFromLevels(g, r, h.mgr.Forward, k)
		h.counts = append(h.counts, res)
	}
}

// countRoundFromLevels recounts shortest paths for root slot k using the
// standing BFS levels.
func countRoundFromLevels(g engine.View, root graph.VertexID, st *engine.State, k int) []uint64 {
	levels := st.Column(k)
	res := props.CountShortestPaths(g, root, levels)
	return res
}

func (h *ssnspHandler) update(g engine.View, changed []graph.VertexID) engine.Stats {
	start := time.Now()
	stats := h.mgr.Update(g, changed)
	h.recount(g)
	h.last = time.Since(start)
	return stats
}

func (h *ssnspHandler) lastMaintain() time.Duration { return h.last }

func (h *ssnspHandler) queryDelta(ctx context.Context, s *System, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	var (
		init   []uint64
		slot   int
		propUR uint64
	)
	view, release, err := s.pinShared(func(engine.View) error {
		init, slot, propUR = h.mgr.DeltaFor(u)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	initCopy := append([]uint64(nil), init...)
	res, err := props.RunSSNSPDeltaCtx(ctx, view, u, init)
	if err != nil {
		return nil, err
	}
	res.PredicateRate = props.PredicateRate(initCopy, res.Levels)
	stats := res.LevelStats
	stats.Add(res.CountStats)
	return &QueryResult{
		Problem: "SSNSP", Source: u,
		Values: res.Levels, Width: 1, Counts: res.Counts,
		Stats: stats, CountStats: res.CountStats,
		Elapsed:     time.Since(start),
		Incremental: true, StandingSlot: slot, PropUR: propUR,
		Version: viewVersion(view), versionSet: true,
	}, nil
}

func (h *ssnspHandler) queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	res, err := props.RunSSNSPCtx(ctx, g, u)
	if err != nil {
		return nil, err
	}
	stats := res.LevelStats
	stats.Add(res.CountStats)
	return &QueryResult{
		Problem: "SSNSP", Source: u,
		Values: res.Levels, Width: 1, Counts: res.Counts,
		Stats: stats, CountStats: res.CountStats,
		Elapsed: time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------
// Whole-graph queries (no triangle needed): the system maintains them
// incrementally like classic streaming systems and answers from the
// standing state directly.

type pageRankHandler struct {
	mu      *sync.RWMutex
	ranks   []float64
	version uint64 // snapshot version the ranks converged at
	last    time.Duration
}

func newPageRankHandler(mu *sync.RWMutex, g engine.View) *pageRankHandler {
	start := time.Now()
	res := props.PageRank(g, 0.85, 100, 1e-9)
	return &pageRankHandler{mu: mu, ranks: res.Ranks, version: viewVersion(g), last: time.Since(start)}
}

func (h *pageRankHandler) update(g engine.View, _ []graph.VertexID) engine.Stats {
	start := time.Now()
	res := props.PageRankFrom(g, h.ranks, 0.85, 100, 1e-9)
	h.ranks = res.Ranks
	h.version = viewVersion(g)
	h.last = time.Since(start)
	return engine.Stats{Iterations: res.Iterations}
}

func (h *pageRankHandler) lastMaintain() time.Duration { return h.last }

func (h *pageRankHandler) queryDelta(_ context.Context, _ *System, u graph.VertexID) (*QueryResult, error) {
	// Answered instantly from the standing ranks — nothing to cancel. The
	// reported version is the one the ranks last converged at, which can
	// differ from the latest snapshot while a mutation is in flight.
	h.mu.RLock()
	vals := make([]uint64, len(h.ranks))
	for i, r := range h.ranks {
		vals[i] = floatBits(r)
	}
	v := h.version
	h.mu.RUnlock()
	return &QueryResult{Problem: "PageRank", Source: u, Values: vals, Width: 1, Incremental: true,
		Version: v, versionSet: true}, nil
}

func (h *pageRankHandler) queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	res, err := props.PageRankCtx(ctx, g, 0.85, 100, 1e-9)
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, len(res.Ranks))
	for i, r := range res.Ranks {
		vals[i] = floatBits(r)
	}
	return &QueryResult{Problem: "PageRank", Source: u, Values: vals, Width: 1,
		Stats: engine.Stats{Iterations: res.Iterations}, Elapsed: time.Since(start)}, nil
}

type ccHandler struct {
	mu      *sync.RWMutex
	st      *engine.State
	version uint64 // snapshot version the labels converged at
	last    time.Duration
}

func newCCHandler(mu *sync.RWMutex, g engine.View) *ccHandler {
	start := time.Now()
	st, _ := props.ConnectedComponents(g)
	return &ccHandler{mu: mu, st: st, version: viewVersion(g), last: time.Since(start)}
}

func (h *ccHandler) update(g engine.View, changed []graph.VertexID) engine.Stats {
	start := time.Now()
	stats := props.ResumeConnectedComponents(g, h.st, changed)
	h.version = viewVersion(g)
	h.last = time.Since(start)
	return stats
}

func (h *ccHandler) lastMaintain() time.Duration { return h.last }

func (h *ccHandler) queryDelta(_ context.Context, _ *System, u graph.VertexID) (*QueryResult, error) {
	// Answered instantly from the standing labels — nothing to cancel.
	// The version reported is the one the labels converged at.
	h.mu.RLock()
	vals := append([]uint64(nil), h.st.Values...)
	v := h.version
	h.mu.RUnlock()
	return &QueryResult{Problem: "CC", Source: u, Values: vals, Width: 1, Incremental: true,
		Version: v, versionSet: true}, nil
}

func (h *ccHandler) queryFull(ctx context.Context, g engine.View, u graph.VertexID) (*QueryResult, error) {
	start := time.Now()
	st, stats, err := props.ConnectedComponentsCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Problem: "CC", Source: u, Values: append([]uint64(nil), st.Values...),
		Width: 1, Stats: stats, Elapsed: time.Since(start)}, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
