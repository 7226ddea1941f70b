package tripoline_test

import (
	"testing"

	"tripoline"
	"tripoline/internal/gen"
)

// ringEdges returns a weighted ring over n vertices.
func ringEdges(n int, w tripoline.Weight) []tripoline.Edge {
	edges := make([]tripoline.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = tripoline.Edge{
			Src: tripoline.VertexID(i),
			Dst: tripoline.VertexID((i + 1) % n),
			W:   w,
		}
	}
	return edges
}

func TestFacadeEndToEnd(t *testing.T) {
	g := tripoline.NewGraph(16, tripoline.Undirected)
	snap, changed := g.InsertEdges(ringEdges(16, 3))
	if snap.NumEdges() != 32 { // mirrored
		t.Fatalf("m=%d", snap.NumEdges())
	}
	if len(changed) != 16 {
		t.Fatalf("changed=%d", len(changed))
	}

	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(2))
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	if got := sys.Enabled(); len(got) != 1 || got[0] != "SSSP" {
		t.Fatalf("Enabled=%v", got)
	}
	if sys.Graph() != g {
		t.Fatal("Graph() identity lost")
	}

	rep := sys.ApplyBatch([]tripoline.Edge{{Src: 0, Dst: 8, W: 1}})
	if rep.BatchEdges != 1 || rep.ChangedSources != 2 {
		t.Fatalf("report %+v", rep)
	}

	inc, err := sys.Query("SSSP", 5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.QueryFull("SSSP", 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if inc.Values[v] != full.Values[v] {
			t.Fatalf("Δ/full differ at %d", v)
		}
	}
	// Ring of 16 with the 0–8 chord: dist(5→8) = 3 hops × weight 3 = 9.
	if full.Values[8] != 9 {
		t.Fatalf("dist(5,8)=%d, want 9", full.Values[8])
	}
	// dist(5→0): around = 5×3=15, or via 8: 9+1=10.
	if full.Values[0] != 10 {
		t.Fatalf("dist(5,0)=%d, want 10 via the chord", full.Values[0])
	}

	d, err := sys.StandingMaintainTime("SSSP")
	if err != nil || d <= 0 {
		t.Fatalf("maintain time %v err %v", d, err)
	}
}

func TestFacadeOnGeneratedGraph(t *testing.T) {
	cfg := gen.Config{Name: "t", LogN: 10, AvgDegree: 8, Directed: true, Seed: 3}
	edges := gen.RMAT(cfg)
	g := tripoline.NewGraph(cfg.N(), tripoline.Directed)
	g.InsertEdges(edges[:len(edges)/2])
	sys := tripoline.NewSystem(g)
	for _, p := range []string{"BFS", "SSR"} {
		if err := sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	sys.ApplyBatch(edges[len(edges)/2:])
	for _, p := range []string{"BFS", "SSR"} {
		inc, err := sys.Query(p, 17)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sys.QueryFull(p, 17)
		if err != nil {
			t.Fatal(err)
		}
		for v := range full.Values {
			if inc.Values[v] != full.Values[v] {
				t.Fatalf("%s Δ/full differ at %d", p, v)
			}
		}
		if !inc.Incremental {
			t.Fatal("incremental flag not set")
		}
	}
}

// leastHops is a custom problem for the EnableProblem path: plain hop
// counts (BFS by another name, proving arbitrary Problem values plug in).
type leastHops struct{}

func (leastHops) Name() string        { return "LeastHops" }
func (leastHops) InitValue() uint64   { return ^uint64(0) }
func (leastHops) SourceValue() uint64 { return 0 }
func (leastHops) Relax(v uint64, _ tripoline.Weight) (uint64, bool) {
	if v == ^uint64(0) {
		return 0, false
	}
	return v + 1, true
}
func (leastHops) Better(a, b uint64) bool { return a < b }
func (leastHops) Combine(a, b uint64) uint64 {
	if a == ^uint64(0) || b == ^uint64(0) {
		return ^uint64(0)
	}
	return a + b
}

func TestFacadeCustomProblem(t *testing.T) {
	g := tripoline.NewGraph(32, tripoline.Undirected)
	g.InsertEdges(ringEdges(32, 7))
	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(2))
	if err := sys.EnableProblem(leastHops{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableProblem(leastHops{}); err == nil {
		t.Fatal("duplicate custom problem accepted")
	}
	inc, err := sys.Query("LeastHops", 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.QueryFull("LeastHops", 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if inc.Values[v] != full.Values[v] {
			t.Fatalf("custom problem Δ/full differ at %d", v)
		}
	}
	// Ring of 32: the farthest vertex is 16 hops away.
	if full.Values[(3+16)%32] != 16 {
		t.Fatalf("hops=%d, want 16", full.Values[(3+16)%32])
	}
}

func TestFacadeErrors(t *testing.T) {
	g := tripoline.NewGraph(4, tripoline.Directed)
	sys := tripoline.NewSystem(g)
	if _, err := sys.Query("SSSP", 0); err == nil {
		t.Fatal("query before Enable accepted")
	}
	if err := sys.Enable("Bogus"); err == nil {
		t.Fatal("bogus problem accepted")
	}
}

func TestFacadeHistoryAndReselect(t *testing.T) {
	g := tripoline.NewGraph(8, tripoline.Undirected)
	g.InsertEdges(ringEdges(8, 1))
	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(2),
		tripoline.WithHistory(4), tripoline.WithQueryRecording())
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	v0 := g.Acquire().Version()

	sys.ApplyBatch([]tripoline.Edge{{Src: 0, Dst: 4, W: 1}})
	if len(sys.HistoryVersions()) != 2 {
		t.Fatalf("versions %v", sys.HistoryVersions())
	}
	// Historical: before the chord, 4 was 4 hops from 0.
	old, err := sys.QueryAt(v0, "BFS", 0)
	if err != nil {
		t.Fatal(err)
	}
	if old.Values[4] != 4 {
		t.Fatalf("historical level(4)=%d, want 4", old.Values[4])
	}
	// Live: the chord makes it 1 hop.
	now, err := sys.Query("BFS", 0)
	if err != nil {
		t.Fatal(err)
	}
	if now.Values[4] != 1 {
		t.Fatalf("live level(4)=%d, want 1", now.Values[4])
	}
	// Reselection with the recorded history keeps answers exact.
	if err := sys.ReselectRoots("BFS"); err != nil {
		t.Fatal(err)
	}
	again, err := sys.Query("BFS", 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range now.Values {
		if again.Values[v] != now.Values[v] {
			t.Fatalf("post-reselect differs at %d", v)
		}
	}
}

func TestFormatValue(t *testing.T) {
	if got := tripoline.FormatValue("SSSP", 7); got != "dist 7" {
		t.Fatalf("FormatValue = %q", got)
	}
	if got := tripoline.FormatValue("SSR", 0); got != "unreachable" {
		t.Fatalf("FormatValue = %q", got)
	}
}

func TestBuiltinProblemsAllEnable(t *testing.T) {
	g := tripoline.NewGraph(32, tripoline.Undirected)
	g.InsertEdges(ringEdges(32, 2))
	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(2))
	names := tripoline.BuiltinProblems()
	if len(names) != 10 {
		t.Fatalf("BuiltinProblems = %v", names)
	}
	for _, p := range names {
		if err := sys.Enable(p); err != nil {
			t.Fatalf("Enable(%s): %v", p, err)
		}
	}
	if got := sys.Enabled(); len(got) != 10 {
		t.Fatalf("Enabled = %v", got)
	}
}

func TestFacadeSnapshotIsolation(t *testing.T) {
	g := tripoline.NewGraph(4, tripoline.Directed)
	before := g.Acquire()
	g.InsertEdges([]tripoline.Edge{{Src: 0, Dst: 1, W: 1}})
	if before.NumEdges() != 0 {
		t.Fatal("acquired snapshot mutated")
	}
	if g.Acquire().NumEdges() != 1 {
		t.Fatal("new snapshot missing edge")
	}
}

// TestFacadeOptions covers the NewSystem option forms of history, query
// recording and the Δ-result cache.
func TestFacadeOptions(t *testing.T) {
	g := tripoline.NewGraph(16, tripoline.Undirected)
	g.InsertEdges(ringEdges(16, 1))
	sys := tripoline.NewSystem(g,
		tripoline.WithStandingQueries(2),
		tripoline.WithHistory(4),
		tripoline.WithQueryRecording(),
		tripoline.WithResultCache(8),
	)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("BFS", 5)
	if err != nil {
		t.Fatal(err)
	}

	// WithResultCache: the answer is retained and servable.
	cached, stale, ok := sys.CachedQuery("BFS", 5, 0, false)
	if !ok || stale != 0 || cached.Version != res.Version {
		t.Fatalf("cached query ok=%v stale=%d", ok, stale)
	}
	if m := sys.ResultCacheMetrics(); m.Hits != 1 || m.Entries != 1 {
		t.Fatalf("cache metrics %+v", m)
	}

	// WithHistory: versions are recorded for QueryAt.
	sys.ApplyBatch([]tripoline.Edge{{Src: 0, Dst: 8, W: 1}})
	if len(sys.HistoryVersions()) == 0 {
		t.Fatal("WithHistory recorded no versions")
	}
	at, err := sys.QueryAt(res.Version, "BFS", 5)
	if err != nil {
		t.Fatal(err)
	}
	if at.Version != res.Version {
		t.Fatalf("QueryAt version %d, want %d", at.Version, res.Version)
	}

	// WithQueryRecording: ReselectRoots consumes the recorded workload
	// without error (it falls back to topology when the histogram is thin).
	if err := sys.ReselectRoots("BFS"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSubscribe drives a subscription end to end through the
// facade: snapshot, delta after a batch, closed channel after
// Unsubscribe.
func TestFacadeSubscribe(t *testing.T) {
	g := tripoline.NewGraph(16, tripoline.Undirected)
	g.InsertEdges(ringEdges(16, 1))
	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(2))
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Subscribe("BFS", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := <-sub.Frames()
	if first.Kind != "snapshot" || len(first.Values) != 16 {
		t.Fatalf("first frame %+v", first)
	}
	if sys.Subscribers() != 1 {
		t.Fatal("subscriber not registered")
	}
	rep := sys.ApplyBatch([]tripoline.Edge{{Src: 3, Dst: 9, W: 1}})
	if rep.FramesSent != 1 {
		t.Fatalf("fan-out %+v", rep)
	}
	delta := <-sub.Frames()
	if delta.Kind != "delta" || delta.Version != rep.Version {
		t.Fatalf("delta frame %+v", delta)
	}
	sys.Unsubscribe(sub)
	if _, ok := <-sub.Frames(); ok {
		t.Fatal("frames channel open after Unsubscribe")
	}
}
