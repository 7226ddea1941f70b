package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// httpOutcome is everything the untraced run measured.
type httpOutcome struct {
	w       workload
	setup   []time.Duration
	v0      uint64
	reads   []result
	writes  []result
	rounds  []roundOutcome
	rssMB   float64
	conns   int64
	lateP90 time.Duration
	lateP99 time.Duration
	// attempted and failed count every request of the run.
	attempted, failed int
	gate              *gateReport
}

// roundOutcome holds one round's capacity-block result.
type roundOutcome struct {
	capReads int
	capTime  time.Duration
}

// httpRun spawns the server setupRuns times, then drives the last one
// through the workload's rounds and checks the answers.
func httpRun(ctx context.Context, in *inputs, bin, file, dir string, nproc int) (*httpOutcome, error) {
	w := in.w
	h := &httpOutcome{w: w}
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		p, d, v0, err := startServer(ctx, bin, file, in.directed, filepath.Join(dir, fmt.Sprintf("server%d.log", i)))
		if err != nil {
			return nil, err
		}
		h.setup, h.v0 = append(h.setup, d), v0
		if i < setupRuns-1 {
			p.stop()
			continue
		}
		srv = p
	}
	defer srv.stop()
	runtime.GC() // input generation garbage must not collect mid-round

	c := newClient(srv.base, nproc)
	defer c.close()
	wr := newWriter(c, in.writes)
	smp := newSampler(in)
	_, capDur, _ := w.blockDurations(in.total)
	warm, _ := closedReaders(ctx, c, phaseWarmup, in.reads[phaseWarmup], 0, nproc, time.Now().Add(warmupDuration(in.total)), smp.keep)
	h.collect(-1, warm)
	for r := 0; r < rounds; r++ {
		var ro roundOutcome
		// Latency block: open-loop reads at the frozen rate, plus the
		// workload's open-loop inserts.
		base := r * in.perRound[phaseLatency]
		ops := readSchedule(in.roundReads(phaseLatency, r), base, w.readRate)
		for j := 0; j < in.openWrites; j++ {
			ops = append(ops, scheduled{at: time.Duration((float64(j) + 0.5) * float64(w.writeEvery)), write: true})
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })
		h.collect(r, openLoop(ctx, c, wr, phaseLatency, ops, nproc, smp.keep, nil))

		// Capacity block: nproc closed-loop readers.
		base = r * in.perRound[phaseCapacity]
		capRes, capTime := closedReaders(ctx, c, phaseCapacity, in.roundReads(phaseCapacity, r), base, nproc, time.Now().Add(capDur), smp.keep)
		h.collect(r, capRes)
		ro.capTime = capTime
		for i := range capRes {
			if capRes[i].ok() {
				ro.capReads++
			}
		}

		// Ingest block: the closed-loop writer sends a fixed number of
		// writes, with open-loop reads beside it until it finishes.
		done := make(chan []result, 1)
		stop := make(chan struct{})
		go func() {
			defer close(stop)
			done <- wr.closedLoop(ctx, phaseIngest, in.ingestWrites)
		}()
		base = r * in.perRound[phaseIngest]
		beside := openLoop(ctx, c, wr, phaseIngest, readSchedule(in.roundReads(phaseIngest, r), base, w.besideRate), nproc-1, smp.keep, stop)
		h.collect(r, <-done)
		h.collect(r, beside)
		h.rounds = append(h.rounds, ro)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading server RSS: %w", err)
	}
	h.rssMB = rss
	h.conns = c.dials.Load()
	srv.stop()

	var late []float64
	for _, r := range h.reads {
		if r.phase == phaseLatency {
			late = append(late, ms(r.late))
		}
	}
	h.lateP90, h.lateP99 = tail(late, 0.90), tail(late, 0.99)
	h.gate = checkRun(in, h.v0, h.reads, h.writes)
	return h, nil
}

// readSchedule spaces reads evenly at rate per second; base is the
// index of the first read in its block's whole sequence.
func readSchedule(reads []readOp, base int, rate float64) []scheduled {
	ops := make([]scheduled, len(reads))
	for i, op := range reads {
		ops[i] = scheduled{at: time.Duration(float64(i) / rate * float64(time.Second)), read: op, index: base + i}
	}
	return ops
}

// tail is the q-percentile of ms samples as a duration, or their
// maximum when too few samples lie beyond q to report it.
func tail(xs []float64, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	v, ok := percentile(xs, q)
	if !ok {
		v = xs[0]
		for _, x := range xs[1:] {
			v = max(v, x)
		}
	}
	return time.Duration(v * float64(time.Millisecond))
}

func (h *httpOutcome) collect(round int, rs []result) {
	for _, r := range rs {
		r.round = round
		h.attempted++
		if !r.ok() {
			h.failed++
		}
		if r.kind == opRead {
			h.reads = append(h.reads, r)
		} else {
			h.writes = append(h.writes, r)
		}
	}
}

// latencies returns round r's read latencies of one block in ms; a
// failed request counts as infinitely late, so it misses every limit.
func (h *httpOutcome) latencies(ph phase, round int) []float64 {
	var xs []float64
	for i := range h.reads {
		r := &h.reads[i]
		if r.phase == ph && (round < 0 || r.round == round) {
			xs = append(xs, r.ms())
		}
	}
	return xs
}

// hitShare is the share of round r's latency-block reads the server
// answered from its result cache.
func (h *httpOutcome) hitShare(round int) float64 {
	n, hits := 0, 0
	for i := range h.reads {
		r := &h.reads[i]
		if r.phase == phaseLatency && r.round == round {
			n++
			if r.cacheHit {
				hits++
			}
		}
	}
	return ratio(float64(hits), float64(n))
}

// writeLatencies returns round r's ingest-block write latencies of one
// kind in ms (all rounds when r < 0).
func (h *httpOutcome) writeLatencies(kind opKind, round int) []float64 {
	var xs []float64
	for i := range h.writes {
		r := &h.writes[i]
		if r.phase == phaseIngest && r.kind == kind && (round < 0 || r.round == round) {
			xs = append(xs, r.ms())
		}
	}
	return xs
}

// ingestRate returns the edges round r's ingest writer inserted and the
// time its insert requests took. Deletions are left out: one 64-edge
// deletion costs 0.4–4 s depending on which edges it hits, which would
// make the rate depend on the seed more than on the program; they are
// reported on their own.
func (h *httpOutcome) ingestRate(round int) (edges float64, busy time.Duration) {
	for i := range h.writes {
		r := &h.writes[i]
		if r.phase == phaseIngest && r.kind == opInsert && r.round == round {
			busy += r.done.Sub(r.sent)
			if r.ok() {
				edges += batchEdges
			}
		}
	}
	return edges, busy
}

// perRound is the median over rounds of f(round).
func (h *httpOutcome) perRound(f func(r int) (float64, bool)) (float64, bool) {
	var xs []float64
	for r := range h.rounds {
		if v, ok := f(r); ok {
			xs = append(xs, v)
		}
	}
	if len(xs) < len(h.rounds) || len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// endToEnd are the metrics BENCHMARK.json declares, from this run: each
// a median over the rounds, except set-up (the median of setupRuns
// spawns) and the server's peak RSS (over the whole run).
func (h *httpOutcome) endToEnd() map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64, ok bool) {
		if ok {
			m[name] = metric{v, unit}
		}
	}
	setup := make([]float64, len(h.setup))
	for i, d := range h.setup {
		setup[i] = d.Seconds()
	}
	put("setup_s", "s", median(setup), len(setup) > 0)
	v, ok := h.perRound(func(r int) (float64, bool) { return percentile(h.latencies(phaseLatency, r), 0.50) })
	put("query_p50_ms", "ms", v, ok)
	v, ok = h.perRound(func(r int) (float64, bool) {
		return float64(h.rounds[r].capReads) / h.rounds[r].capTime.Seconds(), h.rounds[r].capTime > 0
	})
	put("query_capacity_qps", "1/s", v, ok)
	v, ok = h.perRound(func(r int) (float64, bool) { return percentile(h.writeLatencies(opInsert, r), 0.50) })
	put("insert_p50_ms", "ms", v, ok)
	v, ok = h.perRound(func(r int) (float64, bool) {
		edges, busy := h.ingestRate(r)
		return edges / busy.Seconds(), busy > 0
	})
	put("ingest_edges_per_s", "1/s", v, ok)
	put("server_peak_rss_mb", "MB", h.rssMB, h.rssMB > 0)
	return m
}

// print writes the human-readable report of the untraced run: the gated
// figures per round, and those not gated (tail percentiles only where
// at least ten samples lie beyond them, "-" otherwise).
func (h *httpOutcome) print() {
	pct := func(xs []float64, q float64) string {
		if v, ok := percentile(xs, q); ok {
			return fmt.Sprintf("%.2f", v)
		}
		return "-"
	}
	fmt.Printf("setup_s samples: %v\n", h.setup)
	for r, ro := range h.rounds {
		lat := h.latencies(phaseLatency, r)
		ins := h.writeLatencies(opInsert, r)
		edges, busy := h.ingestRate(r)
		fmt.Printf("round %d: query (open loop, %.0f/s) n=%d p50=%s p90=%s ms, cache hits %.2f; capacity %d in %v = %.1f/s; "+
			"ingest %d inserts p50=%s ms, %.0f edges/s\n",
			r, h.w.readRate, len(lat), pct(lat, 0.5), pct(lat, 0.9), h.hitShare(r),
			ro.capReads, ro.capTime.Round(time.Millisecond), float64(ro.capReads)/ro.capTime.Seconds(),
			len(ins), pct(ins, 0.5), edges/busy.Seconds())
	}
	lat := h.latencies(phaseLatency, -1)
	beside := h.latencies(phaseIngest, -1)
	ins, del := h.writeLatencies(opInsert, -1), h.writeLatencies(opDelete, -1)
	fmt.Printf("all rounds: query n=%d p50=%s p90=%s p99=%s ms; reads beside the writer n=%d p50=%s ms; "+
		"insert n=%d p90=%s ms; delete n=%d p50=%s ms\n",
		len(lat), pct(lat, 0.5), pct(lat, 0.9), pct(lat, 0.99), len(beside), pct(beside, 0.5),
		len(ins), pct(ins, 0.9), len(del), pct(del, 0.5))
	fmt.Printf("failed_ratio %d/%d; server_peak_rss_mb %.1f; gen.conns %d; gen.late p90 %.3f p99 %.3f ms (max below 1000 samples)\n",
		h.failed, h.attempted, h.rssMB, h.conns, ms(h.lateP90), ms(h.lateP99))
	fmt.Printf("correctness gate: %d sampled answers checked against oracle.BestPath, %d failures\n",
		h.gate.checked, len(h.gate.failures))
	for _, f := range h.gate.failures {
		fmt.Println("  MISMATCH:", f)
	}
}
