package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/streamgraph"
)

// TestCachedQueryHitAllocatesNoColumn: a /v1/query cache hit is encoded
// straight from the cache entry, so serving it allocates nothing that
// grows with the graph — no copy of the cached values and no body buffer
// beyond the pooled one.
func TestCachedQueryHitAllocatesNoColumn(t *testing.T) {
	const n = 1 << 14
	g := streamgraph.New(n, false)
	g.InsertEdges(gen.Uniform(n, 8*n, 8, 5))
	sys := core.NewSystem(g, 4)
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	sys.EnableResultCache(8)
	if _, err := sys.Query("SSSP", 3); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, g)
	req := httptest.NewRequest(http.MethodGet, "/v1/query?problem=SSSP&source=3", nil)
	w := &discardWriter{h: http.Header{}}
	hit := func() {
		w.n = 0
		srv.ServeHTTP(w, req)
	}
	hit()
	if w.h.Get("X-Tripoline-Cache") != "hit" || w.code != 0 || w.n < n {
		t.Fatalf("want a cached 200 of at least %d bytes, got cache=%q code=%d bytes=%d",
			n, w.h.Get("X-Tripoline-Cache"), w.code, w.n)
	}

	// The median over single hits: a hit that finds the body pool empty
	// (after a GC, or under -race, which drops pooled items on purpose)
	// allocates its buffer afresh, and that is not what is measured here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 51
	perHit := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range perHit {
		runtime.ReadMemStats(&before)
		hit()
		runtime.ReadMemStats(&after)
		perHit[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perHit)
	if column := uint64(n) * 8; perHit[runs/2] >= column/4 {
		t.Fatalf("a cached hit allocates %d bytes, want far below one %d-byte column", perHit[runs/2], column)
	}
	allocs := testing.AllocsPerRun(runs, hit)
	if allocs > 32 {
		t.Fatalf("a cached hit makes %.0f allocations", allocs)
	}
	t.Logf("cached hit: %d bytes, %.0f allocations", perHit[runs/2], allocs)
}
