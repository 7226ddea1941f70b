package core_test

import (
	"math"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

func buildSystem(t *testing.T, directed bool, problems ...string) (*core.System, *streamgraph.Graph, []graph.Edge) {
	t.Helper()
	edges := gen.Uniform(160, 1400, 8, 21)
	g := streamgraph.New(160, directed)
	g.InsertEdges(edges[:1000])
	sys := core.NewSystem(g, 4)
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	return sys, g, edges
}

// TestQueryEqualsQueryFull is the system-level Theorem 4.4 check across
// all eight vertex-specific problems, with streaming in between.
func TestQueryEqualsQueryFull(t *testing.T) {
	for _, directed := range []bool{true, false} {
		all := []string{"BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "SSR", "Radii", "SSNSP"}
		sys, _, edges := buildSystem(t, directed, all...)
		// Stream two batches through the system.
		sys.ApplyBatch(edges[1000:1200])
		sys.ApplyBatch(edges[1200:])
		for _, name := range all {
			for _, u := range []graph.VertexID{0, 13, 77, 159} {
				inc, err := sys.Query(name, u)
				if err != nil {
					t.Fatal(err)
				}
				full, err := sys.QueryFull(name, u)
				if err != nil {
					t.Fatal(err)
				}
				if len(inc.Values) != len(full.Values) {
					t.Fatalf("%s u=%d: widths differ", name, u)
				}
				for i := range inc.Values {
					if inc.Values[i] != full.Values[i] {
						t.Fatalf("%s directed=%v u=%d: value[%d] = %d incremental vs %d full",
							name, directed, u, i, inc.Values[i], full.Values[i])
					}
				}
				for i := range inc.Counts {
					if inc.Counts[i] != full.Counts[i] {
						t.Fatalf("%s u=%d: SSNSP count[%d] differs", name, u, i)
					}
				}
				if inc.Radius != full.Radius {
					t.Fatalf("%s u=%d: radius %d vs %d", name, u, inc.Radius, full.Radius)
				}
				if !inc.Incremental || full.Incremental {
					t.Fatalf("%s: incremental flags wrong", name)
				}
			}
		}
	}
}

func TestQueryMatchesOracleAfterStreaming(t *testing.T) {
	sys, g, edges := buildSystem(t, true, "SSSP")
	sys.ApplyBatch(edges[1000:])
	csr := g.Acquire().CSR(true)
	for _, u := range []graph.VertexID{4, 90} {
		res, err := sys.Query("SSSP", u)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.BestPath(csr, props.SSSP{}, u)
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("u=%d dist[%d]=%d, want %d", u, v, res.Values[v], want[v])
			}
		}
	}
}

func TestEnableErrors(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "BFS")
	if err := sys.Enable("BFS"); err == nil {
		t.Fatal("duplicate enable did not error")
	}
	if err := sys.Enable("NotAProblem"); err == nil {
		t.Fatal("unknown problem did not error")
	}
	if got := sys.Enabled(); len(got) != 1 || got[0] != "BFS" {
		t.Fatalf("Enabled() = %v", got)
	}
}

func TestQueryUnknownProblem(t *testing.T) {
	sys, _, _ := buildSystem(t, false)
	if _, err := sys.Query("SSSP", 0); err == nil {
		t.Fatal("query on disabled problem did not error")
	}
	if _, err := sys.QueryFull("SSSP", 0); err == nil {
		t.Fatal("full query on disabled problem did not error")
	}
	if _, err := sys.StandingMaintainTime("SSSP"); err == nil {
		t.Fatal("maintain time on disabled problem did not error")
	}
}

func TestApplyBatchReport(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "SSSP", "SSWP")
	rep := sys.ApplyBatch(edges[1000:1100])
	if rep.BatchEdges != 100 {
		t.Fatalf("BatchEdges=%d", rep.BatchEdges)
	}
	if rep.ChangedSources == 0 || rep.Version != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.StandingElapsed <= 0 {
		t.Fatal("no standing time recorded")
	}
	d, err := sys.StandingMaintainTime("SSSP")
	if err != nil || d <= 0 {
		t.Fatalf("maintain time %v err %v", d, err)
	}
}

func TestTopDegreeRoots(t *testing.T) {
	g := streamgraph.New(5, true)
	g.InsertEdges([]graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1},
		{Src: 1, Dst: 2, W: 1}, {Src: 1, Dst: 3, W: 1},
		{Src: 2, Dst: 3, W: 1},
	})
	roots := core.TopDegreeRoots(g.Acquire(), 2)
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 1 {
		t.Fatalf("roots=%v", roots)
	}
	all := core.TopDegreeRoots(g.Acquire(), 10)
	if len(all) != 5 {
		t.Fatalf("clamped roots=%v", all)
	}
}

func TestPageRankAndCCHandlers(t *testing.T) {
	sys, g, edges := buildSystem(t, false, "PageRank", "CC")
	sys.ApplyBatch(edges[1000:])
	// CC standing state must match a fresh union-find on the final graph.
	res, err := sys.Query("CC", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Components(g.Acquire().CSR(false))
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("CC label[%d]=%d, want %d", v, res.Values[v], want[v])
		}
	}
	// PageRank standing state answers immediately and sums to ~1.
	pr, err := sys.Query("PageRank", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, bits := range pr.Values {
		sum += float64FromBits(bits)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	// Full evaluations agree within tolerance.
	prFull, _ := sys.QueryFull("PageRank", 0)
	for i := range pr.Values {
		a, b := float64FromBits(pr.Values[i]), float64FromBits(prFull.Values[i])
		if diff := a - b; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("PageRank incremental diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSSNSPQueryReportsCountStats(t *testing.T) {
	sys, _, _ := buildSystem(t, true, "SSNSP")
	res, err := sys.Query("SSNSP", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts == nil {
		t.Fatal("SSNSP result missing counts")
	}
	if res.CountStats.Activations == 0 {
		t.Fatal("counting round recorded no work")
	}
	if res.Stats.Activations < res.CountStats.Activations {
		t.Fatal("total stats smaller than counting round")
	}
}

func TestRadiiDeterministicSources(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "Radii")
	a, _ := sys.Query("Radii", 8)
	b, _ := sys.QueryFull("Radii", 8)
	if a.Width != props.RadiiWidth || b.Width != props.RadiiWidth {
		t.Fatalf("widths %d/%d", a.Width, b.Width)
	}
	if a.Radius != b.Radius {
		t.Fatalf("radius differs: %d vs %d", a.Radius, b.Radius)
	}
}

func TestDefaultKClamping(t *testing.T) {
	g := streamgraph.New(10, false)
	if core.NewSystem(g, 0).K != core.DefaultK {
		t.Fatal("K=0 did not select default")
	}
	if core.NewSystem(g, -3).K != 1 {
		t.Fatal("negative K not clamped to 1")
	}
	if core.NewSystem(g, 100).K != 64 {
		t.Fatal("K>64 not clamped")
	}
}

func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
