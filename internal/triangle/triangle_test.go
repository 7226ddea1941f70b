package triangle_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/triangle"
)

// TestDeltaRunEqualsFullRun is the Theorem 4.4 check: seeding a monotonic
// async-safe evaluation with Δ(u,r) converges to exactly the same values
// as a from-scratch evaluation — for every problem, on random graphs, both
// directed and undirected, over several (u, r) choices.
func TestDeltaRunEqualsFullRun(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, seed := range []uint64{1, 2} {
			g := graph.FromEdges(180, gen.Uniform(180, 1400, 16, seed), directed)
			for name, p := range props.Registry() {
				for _, pair := range [][2]graph.VertexID{{3, 0}, {40, 7}, {100, 100}, {0, 179}} {
					u, r := pair[0], pair[1]
					standing := oracle.BestPath(g, p, r) // property(r, x)
					var propUR uint64
					if directed {
						propUR = oracle.BestPathTo(g, p, r)[u] // property(u, r)
					} else {
						propUR = standing[u]
					}
					init := triangle.DeltaInit(p, u, propUR, standing)
					st := &engine.State{P: p, K: 1, N: len(init), Values: init}
					st.RunPush(g, []graph.VertexID{u}, []uint64{1})

					want := oracle.BestPath(g, p, u)
					for v := range want {
						if st.Values[v] != want[v] {
							t.Fatalf("%s directed=%v seed=%d u=%d r=%d: Δ-run[%d]=%d, full=%d",
								name, directed, seed, u, r, v, st.Values[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestDeltaSavesWork verifies the mechanism, not just correctness: on a
// connected undirected graph, Δ-based SSWP evaluation must touch far
// fewer vertices than the full evaluation (the §6.2 observation that
// min-max problems have near-total initial stability).
func TestDeltaSavesWork(t *testing.T) {
	g := graph.FromEdges(500, gen.Uniform(500, 6000, 16, 5), false)
	p := props.SSWP{}
	u, r := graph.VertexID(17), graph.VertexID(3)

	_, fullStats := engine.Run(g, p, []graph.VertexID{u})

	standing := oracle.BestPath(g, p, r)
	init := triangle.DeltaInit(p, u, standing[u], standing)
	st := &engine.State{P: p, K: 1, N: len(init), Values: init}
	deltaStats := st.RunPush(g, []graph.VertexID{u}, []uint64{1})

	if deltaStats.Activations*2 >= fullStats.Activations {
		t.Fatalf("Δ-based SSWP saved too little: %d vs %d activations",
			deltaStats.Activations, fullStats.Activations)
	}
}

func TestDeltaInitShape(t *testing.T) {
	p := props.SSSP{}
	standing := []uint64{5, 0, 7, props.Unreached}
	init := triangle.DeltaInit(p, 2, 10, standing)
	if init[0] != 15 || init[1] != 10 || init[3] != props.Unreached {
		t.Fatalf("init=%v", init)
	}
	if init[2] != p.SourceValue() {
		t.Fatalf("source slot = %d, want source value", init[2])
	}
}

func TestDeltaInitUnreachableRoot(t *testing.T) {
	// If property(u,r) is the init value, every Δ entry must degrade to
	// init — never an accidentally good value.
	p := props.SSSP{}
	standing := []uint64{1, 2, 3}
	init := triangle.DeltaInit(p, 0, p.InitValue(), standing)
	for i := 1; i < len(init); i++ {
		if init[i] != p.InitValue() {
			t.Fatalf("init[%d]=%d, want Unreached", i, init[i])
		}
	}
}

func TestDeltaInitStridedMatchesColumn(t *testing.T) {
	p := props.SSWP{}
	standing := []uint64{9, 4, 6}
	want := triangle.DeltaInit(p, 1, 5, standing)

	// Standing read in place as slot 2 of a three-wide array, written
	// into slot 1 of a two-wide one.
	src := make([]uint64, 3*len(standing))
	for x, v := range standing {
		src[x*3+2] = v
	}
	dst := make([]uint64, 2*len(standing))
	triangle.DeltaInitStrided(dst, 2, 1, src, 3, 2, len(standing), p, 1, 5, false)
	for x := range want {
		if dst[x*2+1] != want[x] {
			t.Fatalf("strided[%d]=%d, column=%d", x, dst[x*2+1], want[x])
		}
		if dst[x*2] != 0 {
			t.Fatalf("strided write leaked into slot 0 at %d", x)
		}
	}

	// Merge keeps the wider of the current value and the bound, and does
	// not reset the source to SourceValue.
	cur := []uint64{7, 0, 2}
	triangle.DeltaInitStrided(cur, 1, 0, standing, 1, 0, len(standing), p, 1, 5, true)
	for x, wantX := range []uint64{7, 4, 5} {
		if cur[x] != wantX {
			t.Fatalf("merge[%d]=%d, want %d", x, cur[x], wantX)
		}
	}
}

func TestHolds(t *testing.T) {
	p := props.SSSP{}
	if !triangle.Holds(p, 3, 4, 7) {
		t.Fatal("3+4 ≥ 7 must hold")
	}
	if !triangle.Holds(p, 3, 4, 5) {
		t.Fatal("3+4 ≥ 5 must hold")
	}
	if triangle.Holds(p, 3, 4, 8) {
		t.Fatal("3+4 ≥ 8 must not hold")
	}
}

func TestSelectStanding(t *testing.T) {
	p := props.SSSP{}
	slot, val := triangle.SelectStanding(p, []uint64{9, 2, 5})
	if slot != 1 || val != 2 {
		t.Fatalf("selected %d/%d", slot, val)
	}
	// Maximizing problems pick the largest.
	w := props.SSWP{}
	slot, val = triangle.SelectStanding(w, []uint64{9, 2, 5})
	if slot != 0 || val != 9 {
		t.Fatalf("SSWP selected %d/%d", slot, val)
	}
	// All-unreachable candidates fall back to slot 0.
	slot, val = triangle.SelectStanding(p, []uint64{props.Unreached, props.Unreached})
	if slot != 0 || val != props.Unreached {
		t.Fatalf("fallback %d/%d", slot, val)
	}
}
