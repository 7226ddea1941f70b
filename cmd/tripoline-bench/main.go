// Command tripoline-bench regenerates the tables and figures of the
// Tripoline paper's evaluation (§6) on the synthetic stand-in graphs.
//
// Usage:
//
//	tripoline-bench -table 3                 # one table
//	tripoline-bench -figure 11               # one figure
//	tripoline-bench -all                     # the whole evaluation
//	tripoline-bench -all -queries 256 -repeats 3 -scale 2   # closer to paper scale
//
// Every experiment is deterministic in -seed. Expect minutes at default
// sizes and hours at paper-methodology sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"tripoline/internal/bench"
	"tripoline/internal/gen"
)

// commitID best-effort resolves the current git revision for the
// dashboard JSON; empty when not running from a checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-8)")
		figure   = flag.Int("figure", 0, "regenerate one figure (11 or 12)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		scale    = flag.Int("scale", 1, "graph scale factor (1 = laptop scale; each +1 doubles vertices)")
		queries  = flag.Int("queries", 24, "user queries per configuration (paper: 256)")
		repeats  = flag.Int("repeats", 1, "evaluations averaged per query (paper: 3)")
		k        = flag.Int("k", 16, "standing queries per problem")
		bsize    = flag.Int("batch", 10000, "update batch size")
		batches  = flag.Int("batches", 1, "update batches applied per load point (paper: 5)")
		probs    = flag.String("problems", "", "comma-separated problem subset (default: all eight)")
		graphs   = flag.String("graphs", "", "comma-separated graph subset (default: all four)")
		ablate   = flag.String("ablate", "", "comma-separated ablations to run (flat, deltaflat, batch, selection, dual, fusedK)")
		logn     = flag.Int("logn", 16, "log2 vertex count for the fusedK kernel sweep")
		kernJSON = flag.String("kerneljson", "BENCH_kernels.json", "dashboard-format output for the fusedK sweep (empty disables)")
		seed     = flag.Uint64("seed", 0x7121, "experiment seed")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		verify   = flag.Bool("verify", false, "run the cross-validation self-check instead of benchmarks")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *verify {
		if bench.Verify(os.Stdout, *scale, max(4, *queries/4), *seed) != 0 {
			os.Exit(1)
		}
		return
	}

	o := bench.Options{
		Scale:           *scale,
		Queries:         *queries,
		Repeats:         *repeats,
		K:               *k,
		BatchSize:       *bsize,
		BatchesPerPoint: *batches,
		Seed:            *seed,
		Out:             os.Stdout,
	}
	if *probs != "" {
		o.Problems = strings.Split(*probs, ",")
	}
	if *graphs != "" {
		o.Graphs = strings.Split(*graphs, ",")
	}

	report := bench.NewReport(o, time.Now())

	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Printf("[%s done in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	selected := false
	want := func(t int) bool {
		return *all || *table == t
	}
	wantFig := func(f int) bool {
		return *all || *figure == f
	}
	if want(1) {
		selected = true
		run("table 1", func() { bench.Table1(os.Stdout) })
	}
	if want(2) {
		selected = true
		run("table 2", func() { bench.Table2(os.Stdout, o.Scale) })
	}
	if want(3) {
		selected = true
		run("table 3", func() { report.AddTable3(bench.Table3(o)) })
	}
	if want(4) {
		selected = true
		run("table 4", func() { report.AddTable4(bench.Table4(o)) })
	}
	if want(5) {
		selected = true
		run("table 5", func() { report.AddTable5(bench.Table5(o, nil)) })
	}
	if want(6) {
		selected = true
		run("table 6", func() { bench.Table6(o, nil) })
	}
	if want(7) || want(8) {
		selected = true
		run("tables 7+8", func() { report.DD = bench.Table7and8(o) })
	}
	if wantFig(11) {
		selected = true
		run("figure 11", func() { report.Fig11 = bench.Figure11(o) })
	}
	if wantFig(12) {
		selected = true
		run("figure 12", func() { report.Fig12 = bench.Figure12(o) })
	}
	if *ablate != "" {
		graphsForAblation := o.Graphs
		if len(graphsForAblation) == 0 {
			graphsForAblation = []string{"OR-sim", "FR-sim", "LJ-sim", "TW-sim"}
		}
		for _, a := range strings.Split(*ablate, ",") {
			selected = true
			switch strings.TrimSpace(a) {
			case "flat":
				run("ablation flat", func() {
					for _, g := range graphsForAblation {
						report.AddAblationFlat(bench.AblationFlat(
							os.Stdout, g, "SSSP", o.Scale, o.K, o.Queries, o.BatchSize, o.Seed))
					}
				})
			case "deltaflat":
				run("ablation deltaflat", func() {
					for _, g := range graphsForAblation {
						report.AddAblationDeltaFlat(bench.AblationDeltaFlat(
							os.Stdout, g, o.Scale, nil, o.Repeats, o.Seed))
					}
				})
			case "batch":
				run("ablation batch", func() {
					for _, g := range graphsForAblation {
						bench.AblationBatchMode(os.Stdout, g, o.Scale, o.K, o.BatchSize, o.Seed)
					}
				})
			case "selection":
				run("ablation selection", func() {
					for _, g := range graphsForAblation {
						bench.AblationSelection(os.Stdout, g, "SSSP", o.Scale, o.K, o.Queries, o.Seed)
					}
				})
			case "dual":
				run("ablation dual", func() {
					for _, g := range graphsForAblation {
						if cfg, ok := gen.ByName(g, o.Scale); !ok || !cfg.Directed {
							continue // the dual-model tradeoff only exists on directed graphs
						}
						bench.AblationDualModel(os.Stdout, g, o.Scale, o.Seed)
					}
				})
			case "fusedK", "fusedk":
				run("ablation fusedK", func() {
					cells := bench.AblationFusedK(os.Stdout, *logn, o.BatchSize, []int{1, 4, 16, 64}, o.Seed)
					report.AddAblationFusedK(cells)
					if *kernJSON == "" {
						return
					}
					f, err := os.Create(*kernJSON)
					if err != nil {
						fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
						os.Exit(1)
					}
					defer f.Close()
					if err := bench.WriteKernelBenchJSON(f, cells, commitID(), time.Now()); err != nil {
						fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
						os.Exit(1)
					}
					fmt.Printf("wrote %s\n", *kernJSON)
				})
			default:
				fmt.Fprintf(os.Stderr, "unknown ablation %q (want flat, deltaflat, batch, selection, dual, fusedK)\n", a)
				os.Exit(2)
			}
		}
	}
	if !selected {
		fmt.Fprintln(os.Stderr, "nothing selected: pass -all, -table N, -figure N, or -ablate NAME")
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
