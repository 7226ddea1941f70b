// Command tribench is the repository benchmark: it drives the real
// tripoline-server binary with open-loop HTTP load, checks the answers
// against a from-scratch oracle, and (with --trace 1) replays the same
// seeded operations in process to time each layer. See README.md.
//
//	bash tribench/run.sh --workload query-uniform --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tripoline/internal/gen"
)

// setupRuns is how many times each run spawns the server to measure
// set-up; setup_s is their median and the last one serves the load.
const setupRuns = 3

// lateLimit is the generator health bound. A run whose open-loop
// dispatch p90 is later than this kept falling behind its schedule, so
// it measured the generator, not the server, and is rejected as
// invalid. Single late dispatches (the generator shares the CPUs with
// the server) show in gen.late_p99_ms but do not invalidate a run.
const lateLimit = 5 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: query-uniform, ingest-directed or hot-reads")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 24, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
		bin     = flag.String("server", "", "tripoline-server binary built from the tree under test")
		work    = flag.String("work", ".bench_build", "scratch directory for edge files and logs")
	)
	flag.Parse()
	w, ok := workloadByName(*wname)
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: tribench -server BIN --workload query-uniform|ingest-directed|hot-reads --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tribench:", err)
		stop()
		os.Exit(1)
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tribench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !sum.Correct {
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed uint64, total time.Duration, traced bool, bin, work string) (*summary, error) {
	nproc := runtime.NumCPU()
	if nproc < 2 {
		return nil, fmt.Errorf("need at least 2 CPUs for one reader beside the writer, have %d", nproc)
	}
	runtime.GOMAXPROCS(nproc)
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in := makeInputs(w, seed, total)
	file := filepath.Join(dir, "graph.wel")
	if err := writeEdgeFile(file, in); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d vertices, %d preloaded edges, %d writes available, %d conns\n",
		w.name, seed, in.n, len(in.initial), len(in.writes), nproc)

	h, err := httpRun(ctx, in, bin, file, dir, nproc)
	if err != nil {
		return nil, err
	}
	h.print()
	sum := &summary{Correct: len(h.gate.failures) == 0, Attempted: h.attempted, Failed: h.failed}
	if h.lateP90 > lateLimit {
		return nil, fmt.Errorf("invalid run: generator dispatch p90 %.1f ms late (limit %v): the generator, not the server, fell behind",
			ms(h.lateP90), lateLimit)
	}
	if !traced {
		sum.Metrics = h.endToEnd()
		return sum, nil
	}
	tr, err := tracedRun(ctx, in, file, work, h)
	if err != nil {
		return nil, err
	}
	tr.print()
	sum.Correct = sum.Correct && len(tr.failures) == 0
	sum.Attempted += tr.attempted
	sum.Metrics = tr.metrics
	return sum, nil
}

func writeEdgeFile(path string, in *inputs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gen.WriteWEL(f, in.initial, "tribench "+in.w.name); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
