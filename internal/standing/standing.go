// Package standing maintains Tripoline's standing queries: the K
// pre-selected vertex-specific queries q(r_1..r_K) that are evaluated
// continuously and incrementally as the graph streams, and whose converged
// property arrays seed the Δ-based evaluation of arbitrary user queries.
//
// Selection follows §4.5: the K roots are the top-K out-degree vertices
// (topology-based selection, Eq. 14), and at user-query time the best of
// the K is picked by argmin property(u, r) under the problem's order
// (Eq. 15). Maintenance uses the batch mode of §4.5: all K queries share
// one combined frontier and one K-wide value array, so the graph and the
// value arrays are traversed once per update instead of K times.
//
// For directed graphs the manager additionally maintains the reversed
// standing query q⁻¹(r) (property(x, r) for all x) using the pull model
// over the same out-edge-only representation — the dual-model evaluation
// of §4.2 — because property(u, r) on a directed graph is not available
// from q(r) itself.
package standing

import (
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/triangle"
)

// Manager owns one problem's standing queries over one streaming graph.
type Manager struct {
	Problem engine.Problem
	Roots   []graph.VertexID
	// Forward holds q(r_k): Forward.Value(x, k) = property(r_k, x).
	Forward *engine.State
	// Reverse holds q⁻¹(r_k) on directed graphs:
	// Reverse.Value(x, k) = property(x, r_k). Nil on undirected graphs,
	// where property(x, r) = property(r, x).
	Reverse *engine.State

	directed bool
	// LastMaintain is the wall time of the most recent Update (or the
	// initial evaluation), the quantity reported in Tables 5 and 6.
	LastMaintain time.Duration
	// TotalStats accumulates engine work across the lifetime.
	TotalStats engine.Stats
	// LastVersion is the snapshot version the standing state last
	// converged on, when the evaluation view carries one
	// (engine.Versioned); 0 before any versioned maintenance.
	LastVersion uint64

	// maskScratch backs Update's per-changed-source seed masks. Update
	// runs on every batch and the engine reads the masks only during
	// initial seeding, so one scratch slice per manager is safe: the
	// manager is maintained by the single writer.
	maskScratch []uint64
}

// New fully evaluates the K standing queries rooted at roots on the given
// snapshot. directed selects dual-model maintenance.
func New(p engine.Problem, g engine.View, roots []graph.VertexID, directed bool) *Manager {
	m := &Manager{Problem: p, Roots: roots, directed: directed}
	start := time.Now()
	m.noteVersion(g)
	m.Forward = engine.NewState(p, g.NumVertices(), len(roots))
	seeds := make([]graph.VertexID, len(roots))
	masks := make([]uint64, len(roots))
	for k, r := range roots {
		m.Forward.SetSource(r, k)
		seeds[k] = r
		masks[k] = 1 << uint(k)
	}
	m.TotalStats.Add(m.Forward.RunPush(g, seeds, masks))
	if directed {
		m.Reverse = engine.NewState(p, g.NumVertices(), len(roots))
		for k, r := range roots {
			m.Reverse.SetSource(r, k)
		}
		var st engine.Stats
		m.Reverse.RunPull(g, &st)
		m.TotalStats.Add(st)
	}
	m.LastMaintain = time.Since(start)
	return m
}

// K returns the number of standing queries.
func (m *Manager) K() int { return len(m.Roots) }

// Update incrementally re-stabilizes every standing query after a batch of
// edge insertions. changed lists the distinct source vertices of the new
// arcs (as returned by streamgraph.Graph.InsertEdges): re-activating
// exactly those vertices with their current values resumes the BSP
// iterations until the values stabilize again (§2, Figure 2-(c)).
func (m *Manager) Update(g engine.View, changed []graph.VertexID) engine.Stats {
	start := time.Now()
	var stats engine.Stats
	fullMask := uint64(1)<<uint(len(m.Roots)) - 1
	if len(m.Roots) == 64 {
		fullMask = ^uint64(0)
	}
	masks := m.maskScratch
	if cap(masks) < len(changed) {
		masks = make([]uint64, len(changed))
	} else {
		masks = masks[:len(changed)]
	}
	for i := range masks {
		masks[i] = fullMask
	}
	m.maskScratch = masks
	m.noteVersion(g)
	m.Forward.Grow(g.NumVertices())
	stats.Add(m.Forward.RunPush(g, changed, masks))
	if m.Reverse != nil {
		m.Reverse.Grow(g.NumVertices())
		var st engine.Stats
		m.Reverse.RunPull(g, &st)
		stats.Add(st)
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// Rebuild re-evaluates every standing query from scratch on the given
// snapshot, keeping the same roots. It is the recovery path after edge
// deletions, which break the monotonicity that incremental resumption
// (Update) relies on.
func (m *Manager) Rebuild(g engine.View) engine.Stats {
	start := time.Now()
	var stats engine.Stats
	m.noteVersion(g)
	m.Forward = engine.NewState(m.Problem, g.NumVertices(), len(m.Roots))
	seeds := make([]graph.VertexID, len(m.Roots))
	masks := make([]uint64, len(m.Roots))
	for k, r := range m.Roots {
		m.Forward.SetSource(r, k)
		seeds[k] = r
		masks[k] = 1 << uint(k)
	}
	stats.Add(m.Forward.RunPush(g, seeds, masks))
	if m.directed {
		m.Reverse = engine.NewState(m.Problem, g.NumVertices(), len(m.Roots))
		for k, r := range m.Roots {
			m.Reverse.SetSource(r, k)
		}
		var st engine.Stats
		m.Reverse.RunPull(g, &st)
		stats.Add(st)
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// PropUR returns property(u, r_k) for every standing root: on undirected
// graphs this is Forward.Value(u, k) (paths are symmetric); on directed
// graphs it comes from the reversed state.
func (m *Manager) PropUR(u graph.VertexID) []uint64 {
	return m.PropURInto(nil, u)
}

// PropURInto is PropUR writing into dst (grown when too small), so hot
// paths that call it per query — or per slot, like Radii — can reuse one
// buffer instead of allocating K words each time.
func (m *Manager) PropURInto(dst []uint64, u graph.VertexID) []uint64 {
	if cap(dst) < len(m.Roots) {
		dst = make([]uint64, len(m.Roots))
	} else {
		dst = dst[:len(m.Roots)]
	}
	src := m.Forward
	if m.directed {
		src = m.Reverse
	}
	for k := range m.Roots {
		dst[k] = src.Value(u, k)
	}
	return dst
}

// Select picks the best standing query for user source u (Eq. 15) and
// returns its slot and property(u, r_slot). K is at most 64, so the
// candidate properties fit a stack buffer and Select allocates nothing.
func (m *Manager) Select(u graph.VertexID) (slot int, propUR uint64) {
	var buf [64]uint64
	return triangle.SelectStanding(m.Problem, m.PropURInto(buf[:0], u))
}

// noteVersion records the evaluation view's snapshot version when it
// carries one.
func (m *Manager) noteVersion(g engine.View) {
	if v, ok := g.(engine.Versioned); ok {
		m.LastVersion = v.Version()
	}
}

// DeltaInto Δ-initializes a user query rooted at u from the best
// standing query (Eq. 15): it reads that standing slot in place through
// Forward.StrideView and writes Δ(u, r*) for the first n vertices
// (clamped to the standing state's size) through the strided
// destination dst[x*stride+off] — one parallel O(N) pass on every
// layout, with no column copied out of the standing state. It returns
// the chosen slot and property(u, r*). The caller holds the standing state still (the
// system's shared lock) for the duration.
func (m *Manager) DeltaInto(dst []uint64, stride, off, n int, u graph.VertexID) (slot int, propUR uint64) {
	slot, propUR = m.Select(u)
	src, srcStride, srcOff := m.Forward.StrideView(slot)
	triangle.DeltaInitStrided(dst, stride, off, src, srcStride, srcOff, min(n, m.Forward.N),
		m.Problem, u, propUR)
	return slot, propUR
}

// DeltaFor materializes the Δ(u, r*) initialization array for a user
// query rooted at u, using the best standing query. It returns the init
// values (the one N-word allocation), the chosen slot, and
// property(u, r*).
func (m *Manager) DeltaFor(u graph.VertexID) (init []uint64, slot int, propUR uint64) {
	init = make([]uint64, m.Forward.N)
	slot, propUR = m.DeltaInto(init, 1, 0, len(init), u)
	return init, slot, propUR
}
