package standing_test

import (
	"runtime"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// rmatManager evaluates K standing queries of p on a 2^logN-vertex
// undirected RMAT graph rooted at its top-degree vertices.
func rmatManager(tb testing.TB, p engine.Problem, logN, k int) *standing.Manager {
	tb.Helper()
	cfg := gen.Config{LogN: logN, AvgDegree: 16, MaxWeight: 64, Seed: 11}
	edges := gen.RMAT(cfg)
	g := streamgraph.FromEdges(cfg.N(), edges, false)
	roots := gen.TopDegreeVertices(cfg.N(), edges, false, k)
	return standing.New(p, g.Acquire().Flatten(), roots, false)
}

// TestDeltaIntoMatchesColumnInit: Δ-initializing from the standing state
// in place equals DeltaInit over a copied-out standing column, on the
// contiguous K=1 layout and the width-16 one, into a contiguous array
// and into one slot of a width-K state.
func TestDeltaIntoMatchesColumnInit(t *testing.T) {
	for _, k := range []int{1, 16} {
		for _, p := range []engine.Problem{props.SSSP{}, props.BFS{}, props.SSWP{}} {
			m := rmatManager(t, p, 10, k)
			n := m.Forward.N
			for _, u := range []graph.VertexID{0, 5, 777, graph.VertexID(n - 1)} {
				slot, propUR := m.Select(u)
				want := triangle.DeltaInit(p, u, propUR, m.Forward.Column(slot))

				got, gotSlot, gotProp := m.DeltaFor(u)
				if gotSlot != slot || gotProp != propUR {
					t.Fatalf("K=%d %s u=%d: DeltaFor chose (%d,%d), Select (%d,%d)", k, p.Name(), u, gotSlot, gotProp, slot, propUR)
				}
				st := engine.NewState(p, n, 5)
				arr, stride, off := st.StrideView(3)
				m.DeltaInto(arr, stride, off, n, u)
				for x := range want {
					if got[x] != want[x] || st.Value(graph.VertexID(x), 3) != want[x] {
						t.Fatalf("K=%d %s u=%d x=%d: DeltaFor %d, strided %d, column init %d",
							k, p.Name(), u, x, got[x], st.Value(graph.VertexID(x), 3), want[x])
					}
				}
			}
		}
	}
}

// allocBytesPerRun reports the heap bytes one call of f allocates,
// averaged over runs, at GOMAXPROCS=1 as testing.AllocsPerRun measures.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDeltaForAllocatesOneColumn: at K=16 the standing slot is read in
// place, so DeltaFor's only O(N) allocation is the init array itself —
// no standing column is copied out first.
func TestDeltaForAllocatesOneColumn(t *testing.T) {
	m := rmatManager(t, props.SSSP{}, 12, 16)
	col := uint64(m.Forward.N) * 8
	call := func() { m.DeltaFor(7) }
	if allocs := testing.AllocsPerRun(20, call); allocs > 3 {
		t.Fatalf("DeltaFor makes %.0f allocations, want the init array plus the parallel loop's closure and counter", allocs)
	}
	if b := allocBytesPerRun(20, call); b < col || b >= 2*col {
		t.Fatalf("DeltaFor allocates %d bytes per call, want one %d-byte column", b, col)
	}
}

// deltaSink keeps the benchmarked DeltaFor calls observable.
var deltaSink []uint64

// BenchmarkDeltaFor measures one Δ-initialization at K=16 on a
// 65,536-vertex RMAT graph, per problem.
func BenchmarkDeltaFor(b *testing.B) {
	for _, p := range []engine.Problem{props.SSSP{}, props.BFS{}, props.SSWP{}} {
		b.Run(p.Name(), func(b *testing.B) {
			m := rmatManager(b, p, 16, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltaSink, _, _ = m.DeltaFor(graph.VertexID(i*7919) % graph.VertexID(m.Forward.N))
			}
		})
	}
}
