// Command tripoline-loadgen drives synthetic client load at a
// tripoline-server and reports per-endpoint latency quantiles, status
// accounting, and protocol-contract violations.
//
// Usage:
//
//	tripoline-loadgen -scenario query-heavy -duration 10s          # self-hosted target
//	tripoline-loadgen -target http://host:8080 -scenario all       # live server
//	tripoline-loadgen -scenario all -duration 5s -json BENCH_loadgen.json -max-inflight 4,16,64
//	tripoline-loadgen -conform                                     # cache-on vs cache-off conformance + 429 probe
//
// With no -target the driver self-hosts an in-process server built the
// same way cmd/tripoline-server builds one, so a seeded run doubles as
// a conformance smoke test. SIGINT mid-run prints the summary of
// everything recorded so far instead of discarding the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tripoline/internal/loadgen"
)

// commitID best-effort resolves the current git revision for the
// dashboard JSON; empty when not running from a checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "local"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tripoline-loadgen:", err)
	os.Exit(1)
}

func main() {
	var (
		target   = flag.String("target", "", "base URL of a live tripoline-server (empty self-hosts an in-process server)")
		scenario = flag.String("scenario", "query-heavy", "scenario to replay, or \"all\" ("+loadgen.ScenarioNames()+")")
		duration = flag.Duration("duration", 10*time.Second, "run length per scenario")
		workers  = flag.Int("workers", 0, "closed-loop worker count (0 = scenario default)")
		rate     = flag.Float64("rate", 0, "offered req/s across all workers (0 = scenario default, negative = unpaced)")
		seed     = flag.Uint64("seed", 0x51ab, "deterministic op-stream seed")
		jsonPath = flag.String("json", "", "write dashboard-format results to this file (e.g. BENCH_loadgen.json)")
		sweepArg = flag.String("max-inflight", "", "comma-separated admission settings for a saturation sweep over self-hosted servers (e.g. 4,16,64)")
		conform  = flag.Bool("conform", false, "run the cache-on vs cache-off conformance replay and 429 admission probe, then exit")
		vertices = flag.Int("vertices", 2048, "self-hosted graph size (ignored with -target)")
		edges    = flag.Int("edges", 0, "self-hosted seed edge count (0 = 8x vertices; ignored with -target)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; the runner returns the partial
	// report, which still gets printed — the mid-run summary contract.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *conform {
		runConform(ctx, *seed)
		return
	}

	var scenarios []loadgen.Scenario
	if *scenario == "all" {
		scenarios = loadgen.Scenarios
	} else {
		sc, ok := loadgen.ScenarioByName(*scenario)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q (want %s, or all)", *scenario, loadgen.ScenarioNames()))
		}
		scenarios = []loadgen.Scenario{sc}
	}

	selfHost := loadgen.SelfHostConfig{
		Vertices: *vertices, Edges: *edges, Seed: *seed,
		HistoryCapacity: 16, CacheEntries: 256,
	}

	var reports []*loadgen.Report
	exitCode := 0
	for _, sc := range scenarios {
		cfg := loadgen.Config{
			BaseURL:  *target,
			Scenario: sc,
			Workers:  *workers,
			RateRPS:  *rate,
			Duration: *duration,
			Seed:     *seed,
		}
		var tgt *loadgen.Target
		if *target == "" {
			// Fresh server per scenario: drain-under-load leaves its target
			// drained, which must not poison the next scenario's run.
			t, err := loadgen.SelfHost(selfHost)
			if err != nil {
				fatal(err)
			}
			tgt = t
			cfg.BaseURL = t.URL
			cfg.DrainFn = t.Drain
		}
		rep, err := loadgen.Run(ctx, cfg)
		if tgt != nil {
			tgt.Close()
		}
		if err != nil {
			fatal(err)
		}
		rep.WriteText(os.Stdout)
		fmt.Fprintln(os.Stdout)
		if len(rep.ContractViolations()) > 0 {
			exitCode = 1
		}
		reports = append(reports, rep)
		if rep.Interrupted {
			break // SIGINT: summarize what ran, skip the remaining scenarios
		}
	}

	var sweep []loadgen.SweepPoint
	if *sweepArg != "" && ctx.Err() == nil {
		settings, err := parseInts(*sweepArg)
		if err != nil {
			fatal(fmt.Errorf("bad -max-inflight list: %w", err))
		}
		// The sweep varies a server construction parameter, so it always
		// self-hosts — a remote -target cannot be re-admissioned from here.
		sweepWorkers := *workers
		if sweepWorkers <= 0 {
			sweepWorkers = 2 * maxOf(settings)
		}
		sc, _ := loadgen.ScenarioByName("query-heavy")
		// Cache hits bypass the admission gate, so a cached sweep never
		// saturates; the curve only means something evaluating every query.
		// Likewise evaluation must dominate the round trip for the gate to
		// contend at all, so unless -vertices was pinned explicitly the
		// sweep runs a heavier graph than the scenario default.
		sweepHost := selfHost
		sweepHost.CacheEntries = 0
		verticesPinned := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "vertices" {
				verticesPinned = true
			}
		})
		if !verticesPinned {
			sweepHost.Vertices = 32768
			sweepHost.Edges = 0 // re-derive 8x from the new size
		}
		sweep, err = loadgen.SaturationSweep(ctx, sweepHost, sc, settings, sweepWorkers, *duration, *seed, os.Stdout)
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := loadgen.WriteBenchJSON(f, reports, sweep, commitID(), time.Now()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	os.Exit(exitCode)
}

// runConform replays the seeded conformance trace (result cache on
// against result cache off) and probes the admission gate's 429
// contract, exiting nonzero on any divergence or violation.
func runConform(ctx context.Context, seed uint64) {
	rep, err := loadgen.RunConformance(ctx, loadgen.ConformanceConfig{Seed: seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("conformance: %d steps, result cache on vs off: %d divergences, 0 allowed divergences (every step is compared strictly)\n",
		rep.Steps, len(rep.Divergences))
	for _, d := range rep.Divergences {
		fmt.Printf("  DIVERGENCE %s\n", d)
	}
	failed := len(rep.Divergences) > 0
	violations, err := loadgen.ProbeAdmission(ctx)
	if err != nil {
		fatal(err)
	}
	if len(violations) == 0 {
		fmt.Println("admission probe: all endpoints answered 429 with Retry-After")
	}
	for _, v := range violations {
		failed = true
		fmt.Printf("  ADMISSION VIOLATION: %s\n", v)
	}
	if failed {
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("setting %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
