package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// AblationFusedKCell is one width point of the fused-kernel ablation:
// standing-refresh throughput with the width-K SoA kernels on versus the
// legacy interleaved kernel generation, on the same logical edge stream.
type AblationFusedKCell struct {
	Graph        string
	LogN         int
	K            int
	Batches      int
	EdgesApplied int64
	// Mean wall time per standing refresh (one Manager.Update call).
	FusedRefresh  time.Duration
	LegacyRefresh time.Duration
	// Refresh nanoseconds per applied update edge.
	FusedNsPerEdge  float64
	LegacyNsPerEdge float64
	Speedup         float64
	// Fused-kernel work counters accumulated over the refreshes.
	Hoists      int64
	GateSkips   int64
	BlockSweeps int64
	// Verified is true when the two kernel generations produced
	// bit-identical standing states after every refresh AND bit-identical
	// full evaluations for every registered problem on the final graph.
	Verified bool
}

// maxFusedKBatches bounds the refresh count per mode so the sweep stays
// in minutes at LogN=16; both generations replay the identical prefix.
const maxFusedKBatches = 24

// fusedKRepeats is how many times each mode replays the full batch
// sequence per width. The replay is deterministic, so repeats only
// differ by machine noise; the cell reports the minimum total — the
// standard least-noise estimator on a shared machine.
const fusedKRepeats = 3

// AblationFusedK sweeps the standing-query width K over an RMAT graph
// with 2^logn vertices: for each width it maintains K standing SSSP
// queries through a stream of update batches twice — once with the
// fused width-K SoA kernels, once with the legacy interleaved kernel —
// and reports per-refresh and per-edge throughput plus the speedup.
// Each mode replays the sequence fusedKRepeats times (interleaved) and
// the fastest replay is reported. Results are cross-verified bit for bit (the relaxation fixpoint is
// unique, so any divergence is a kernel bug, not noise); a verification
// failure panics rather than reporting a tainted speedup.
func AblationFusedK(w io.Writer, logn, batchSize int, widths []int, seed uint64) []AblationFusedKCell {
	cfg := gen.Config{Name: fmt.Sprintf("RMAT-%d", logn), LogN: logn, AvgDegree: 16, Seed: seed}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, 0.6, batchSize, seed)
	batches := stream.Batches
	if len(batches) > maxFusedKBatches {
		batches = batches[:maxFusedKBatches]
	}

	type modeResult struct {
		mgr   *standing.Manager
		flat  *streamgraph.Flat
		total time.Duration
		stats engine.Stats
		edges int64
	}
	// Standing maintenance runs over the delta-patched flat mirror, the
	// way core drives it — the mirror is the ArcView the fused kernels'
	// cache-blocked dense sweeps need. Mirror maintenance itself is
	// outside the timed region (the deltaflat ablation measures that);
	// both kernel generations see the identical view sequence.
	runMode := func(k int, fused bool) modeResult {
		prev := engine.SetFusedKernels(fused)
		defer engine.SetFusedKernels(prev)
		g := streamgraph.New(cfg.N(), cfg.Directed)
		g.InsertEdges(stream.Initial)
		snap := g.Acquire()
		flat := snap.Flatten()
		roots := topRoots(snap, k)
		mgr := standing.New(props.SSSP{}, flat, roots, cfg.Directed)
		var res modeResult
		for _, b := range batches {
			next, changed := g.InsertEdges(b)
			nextFlat := next.FlattenFrom(flat, changed)
			snap.RetireFlat()
			snap, flat = next, nextFlat
			t0 := time.Now()
			s := mgr.Update(flat, changed)
			res.total += time.Since(t0)
			res.stats.Add(s)
			res.edges += int64(len(b))
		}
		res.mgr = mgr
		res.flat = flat
		return res
	}

	var cells []AblationFusedKCell
	for _, k := range widths {
		// Interleave the repeats (fused, legacy, fused, legacy, ...) so
		// slow drift in background load hits both modes alike, and keep
		// each mode's fastest replay.
		fused := runMode(k, true)
		legacy := runMode(k, false)
		for r := 1; r < fusedKRepeats; r++ {
			if res := runMode(k, true); res.total < fused.total {
				fused = res
			}
			if res := runMode(k, false); res.total < legacy.total {
				legacy = res
			}
		}

		// Standing states after the full refresh sequence must agree on
		// every slot of every vertex.
		for slot := 0; slot < k; slot++ {
			fc, lc := fused.mgr.Forward.Column(slot), legacy.mgr.Forward.Column(slot)
			for v := range fc {
				if fc[v] != lc[v] {
					panic(fmt.Sprintf("bench: fusedK K=%d slot %d vertex %d: fused %#x legacy %#x",
						k, slot, v, fc[v], lc[v]))
				}
			}
		}
		// And a from-scratch width-K evaluation of every registered
		// problem on the final graph must agree between generations.
		roots := fused.mgr.Roots
		for name, p := range props.Registry() {
			fs, _ := engine.Run(fused.flat, p, roots)
			prevTog := engine.SetFusedKernels(false)
			ls, _ := engine.Run(fused.flat, p, roots)
			engine.SetFusedKernels(prevTog)
			for v := 0; v < cfg.N(); v++ {
				for j := 0; j < k; j++ {
					if fs.Value(graph.VertexID(v), j) != ls.Value(graph.VertexID(v), j) {
						panic(fmt.Sprintf("bench: fusedK %s K=%d value(%d,%d) diverges", name, k, v, j))
					}
				}
			}
		}

		cell := AblationFusedKCell{
			Graph: cfg.Name, LogN: logn, K: k,
			Batches: len(batches), EdgesApplied: fused.edges,
			FusedRefresh:  fused.total / time.Duration(len(batches)),
			LegacyRefresh: legacy.total / time.Duration(len(batches)),
			Hoists:        fused.stats.Hoists,
			GateSkips:     fused.stats.GateSkips,
			BlockSweeps:   fused.stats.BlockSweeps,
			Verified:      true,
		}
		if fused.edges > 0 {
			cell.FusedNsPerEdge = float64(fused.total.Nanoseconds()) / float64(fused.edges)
			cell.LegacyNsPerEdge = float64(legacy.total.Nanoseconds()) / float64(legacy.edges)
		}
		if fused.total > 0 {
			cell.Speedup = float64(legacy.total) / float64(fused.total)
		}
		cells = append(cells, cell)
		fmt.Fprintf(w, "Ablation (fusedK, %s, K=%d): fused=%v legacy=%v per refresh (%.1f vs %.1f ns/edge) → %.2fx  [hoists=%d gates=%d sweeps=%d]\n",
			cfg.Name, k,
			cell.FusedRefresh.Round(time.Microsecond), cell.LegacyRefresh.Round(time.Microsecond),
			cell.FusedNsPerEdge, cell.LegacyNsPerEdge, cell.Speedup,
			cell.Hoists, cell.GateSkips, cell.BlockSweeps)
	}
	return cells
}

// kernelBenchFile mirrors the github-action-benchmark data.js shape
// (window.BENCHMARK_DATA), so the sweep can feed the same dashboards
// without a converter.
type kernelBenchFile struct {
	LastUpdate int64                         `json:"lastUpdate"`
	RepoURL    string                        `json:"repoUrl"`
	Entries    map[string][]kernelBenchEntry `json:"entries"`
}

type kernelBenchEntry struct {
	Commit  kernelBenchCommit `json:"commit"`
	Date    int64             `json:"date"`
	Tool    string            `json:"tool"`
	Benches []kernelBench     `json:"benches"`
}

type kernelBenchCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message"`
	Timestamp string `json:"timestamp"`
}

type kernelBench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// WriteKernelBenchJSON serializes the fused-kernel sweep as one
// dashboard entry with three series per width: fused ns/edge, legacy
// ns/edge, and ns per standing refresh.
func WriteKernelBenchJSON(w io.Writer, cells []AblationFusedKCell, commit string, ts time.Time) error {
	entry := kernelBenchEntry{
		Commit: kernelBenchCommit{ID: commit, Message: "fused width-K kernel sweep", Timestamp: ts.UTC().Format(time.RFC3339)},
		Date:   ts.UnixMilli(),
		Tool:   "go",
	}
	for _, c := range cells {
		base := fmt.Sprintf("fusedK/%s/K=%d", c.Graph, c.K)
		extra := fmt.Sprintf("speedup=%.2fx verified=%v batches=%d", c.Speedup, c.Verified, c.Batches)
		entry.Benches = append(entry.Benches,
			kernelBench{Name: base + "/fused_ns_per_edge", Value: c.FusedNsPerEdge, Unit: "ns/edge", Extra: extra},
			kernelBench{Name: base + "/legacy_ns_per_edge", Value: c.LegacyNsPerEdge, Unit: "ns/edge"},
			kernelBench{Name: base + "/fused_ns_per_refresh", Value: float64(c.FusedRefresh.Nanoseconds()), Unit: "ns/refresh"},
		)
	}
	file := kernelBenchFile{
		LastUpdate: ts.UnixMilli(),
		RepoURL:    "",
		Entries:    map[string][]kernelBenchEntry{"Kernels": {entry}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}
