package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

// replayReads is how many latency-block reads the traced replay sends.
const replayReads = 90

// replayOp is one operation of the traced replay: a read of the latency
// block's sequence, or (read < 0) the write at index write.
type replayOp struct {
	read  int
	write int
}

// replayOps interleaves the first replayReads latency-block reads with
// the first writes of the stream, evenly spaced. ingest-directed replays
// through its first deletion; the query workloads replay four inserts.
func replayOps(in *inputs) []replayOp {
	q := min(replayReads, len(in.reads[phaseLatency]))
	nw := 4
	if in.w.deleteEvery > 0 {
		nw = in.w.deleteEvery
	}
	nw = min(nw, len(in.writes))
	var ops []replayOp
	j := 0
	for i := 0; i < q; i++ {
		ops = append(ops, replayOp{read: i})
		for j < nw && (i+1)*(nw+1) >= (j+1)*q {
			ops = append(ops, replayOp{read: -1, write: j})
			j++
		}
	}
	for ; j < nw; j++ {
		ops = append(ops, replayOp{read: -1, write: j})
	}
	return ops
}

// traceOutcome is what the traced run adds to a run's report.
type traceOutcome struct {
	metrics   map[string]metric
	failures  []string
	attempted int
	exact     bool
	spansPath string
}

func (t *traceOutcome) failf(format string, args ...any) {
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *traceOutcome) print() {
	names := make([]string, 0, len(t.metrics))
	for k := range t.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-44s %14.4f %s\n", k, t.metrics[k].Value, t.metrics[k].Unit)
	}
	exact := "exact (two GOMAXPROCS=1 replays agree)"
	if !t.exact {
		exact = "NOT exact (the two GOMAXPROCS=1 replays disagree)"
	}
	fmt.Printf("engine counts: %s; spans written to %s\n", exact, t.spansPath)
	fmt.Printf("traced replay: %d operations, %d mismatches\n", t.attempted, len(t.failures))
	for _, f := range t.failures {
		fmt.Println("  MISMATCH:", f)
	}
}

// readRec and writeRec are what the replay keeps per operation.
type readRec struct {
	problem    string
	clientSpan int           // the client.query span
	coreTime   time.Duration // CachedQuery plus QueryCtx on a miss
	deltaTime  time.Duration // QueryCtx alone; 0 on a cache hit
	bytes      int
	hash       uint64 // of the replica's values
}

type writeRec struct {
	del        bool
	clientSpan int
	apply      time.Duration
	standing   time.Duration
	changed    int
}

// tracedRun replays the workload's seeded operations in process with
// one caller (replayThreeWays), then replays them twice more on fresh
// replicas at GOMAXPROCS=1 for the engine's work counts, and derives the
// per-layer metrics.
func tracedRun(ctx context.Context, in *inputs, file, work string, h *httpOutcome) (*traceOutcome, error) {
	t := &traceOutcome{}
	tr, err := replayThreeWays(ctx, t, in, file)
	if err != nil {
		return nil, err
	}
	t.spansPath = filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", in.w.name, in.seed))
	if err := writeSpans(t.spansPath, tr.spans); err != nil {
		return nil, err
	}
	runtime.GC() // the replay's systems are garbage now

	var passes [2]countPass
	for p := range passes {
		cp, err := countReplay(ctx, in, tr.n, tr.edges, tr.ops, len(tr.reads))
		if err != nil {
			return nil, err
		}
		passes[p] = cp
	}
	t.exact = passes[0].equal(passes[1])
	for i, rr := range tr.reads {
		if passes[0].hashes[i] != rr.hash {
			t.failf("replay read %d: the GOMAXPROCS=1 replica answer differs from the parallel one", i)
		}
	}
	t.metrics = layerMetrics(h, tr, passes[0], t.exact)
	return t, nil
}

// timedReplay is what the three-way replay recorded.
type timedReplay struct {
	n      int
	edges  []graph.Edge // the loaded edge file
	ops    []replayOp
	spans  []span
	reads  []readRec
	writes []writeRec
	// full and delta pair QueryFullCtx with QueryCtx (ms, by problem) on
	// the fixed sample of reads that missed the cache.
	full, delta map[string][]float64
	cache       core.CacheMetrics // counter deltas over the replay
	mirror      mirrorSnap        // replica mirror counter deltas
	// overhead is traced minus untraced median round trip of one
	// repeated cached read.
	overhead time.Duration
}

// overheadPairs is how many traced/untraced pairs tracingOverhead sends.
const overheadPairs = 40

// tracingOverhead sends the same read, a cache hit after its first
// send, alternately with and without tracing, and returns the
// difference of the two medians: what recording the client and server
// spans adds to one request.
func tracingOverhead(ctx context.Context, rec *recorder, hc *http.Client, base string, op readOp) (time.Duration, error) {
	url := base + op.path()
	if _, err := traceRequest(ctx, hc, http.MethodGet, url, nil, 0, -1, false); err != nil {
		return 0, err
	}
	var on, off []float64
	for i := 0; i < 2*overheadPairs; i++ {
		traced := i%2 == 1
		start := time.Now()
		cs := -1
		if traced {
			cs = rec.begin("client.query", 0, -1)
		}
		_, err := traceRequest(ctx, hc, http.MethodGet, url, nil, 0, cs, traced)
		rec.end(cs)
		d := ms(time.Since(start))
		if err != nil {
			return 0, err
		}
		if traced {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	return time.Duration((median(on) - median(off)) * float64(time.Millisecond)), nil
}

// replayThreeWays sends every replay operation three ways at once: over
// loopback HTTP into a server.Server (wrapped in a timing middleware),
// directly into a second core.System, and into the replica. Every
// answer is compared across the three.
func replayThreeWays(ctx context.Context, t *traceOutcome, in *inputs, file string) (*timedReplay, error) {
	rec := &recorder{}
	sp := rec.begin("setup.load", 0, -1)
	edges, n, err := readEdgeFile(file)
	if err != nil {
		return nil, err
	}
	gB := streamgraph.New(n, in.directed)
	gB.InsertEdges(edges)
	rec.end(sp)
	sp = rec.begin("setup.enable", 0, -1)
	sysB, err := newSystem(gB)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	gA := streamgraph.New(n, in.directed)
	gA.InsertEdges(edges)
	sysA, err := newSystem(gA)
	if err != nil {
		return nil, err
	}
	srvA := server.New(sysA, gA, server.WithQueryTimeout(30*time.Second), server.WithWriteTimeout(2*time.Minute))
	base, shutdown, err := serveTraced(srvA, rec)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()

	rep := newReplica(n, in.directed, edges, rec)
	mirror0 := mirrorCounts(rep.mirror)
	cache0 := sysB.ResultCacheMetrics()
	v0 := gB.Acquire().Version()

	tr := &timedReplay{n: n, edges: edges, ops: replayOps(in), full: map[string][]float64{}, delta: map[string][]float64{}}
	reads := in.reads[phaseLatency]
	for i, op := range tr.ops {
		req := uint64(i + 1)
		t.attempted++
		if op.read < 0 {
			wr, err := replayWrite(ctx, t, rec, hc, base, sysB, rep, req, in.writes[op.write], v0+uint64(op.write)+1)
			if err != nil {
				return nil, err
			}
			tr.writes = append(tr.writes, wr)
			continue
		}
		rop := reads[op.read]
		rr, err := replayRead(ctx, t, rec, hc, base, sysB, rep, req, rop)
		if err != nil {
			return nil, err
		}
		if len(tr.reads)%3 == 0 && rr.deltaTime > 0 {
			fs := rec.begin("core.query_full."+rop.problem, req, -1)
			start := time.Now()
			_, err := sysB.QueryFullCtx(ctx, rop.problem, rop.source)
			tr.full[rop.problem] = append(tr.full[rop.problem], ms(time.Since(start)))
			tr.delta[rop.problem] = append(tr.delta[rop.problem], ms(rr.deltaTime))
			rec.end(fs)
			if err != nil {
				return nil, fmt.Errorf("QueryFullCtx: %w", err)
			}
		}
		tr.reads = append(tr.reads, rr)
	}
	c1 := sysB.ResultCacheMetrics()
	tr.cache = core.CacheMetrics{Hits: c1.Hits - cache0.Hits, Misses: c1.Misses - cache0.Misses, StaleServed: c1.StaleServed - cache0.StaleServed}
	tr.mirror = mirrorDelta(mirror0, mirrorCounts(rep.mirror))
	tr.spans = rec.snapshot()
	tr.overhead, err = tracingOverhead(ctx, rec, hc, base, reads[0])
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func readEdgeFile(path string) ([]graph.Edge, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return gen.ReadWEL(f)
}

// newSystem enables the server binary's default problems, in its order,
// with its default result cache.
func newSystem(g *streamgraph.Graph) (*core.System, error) {
	sys := core.NewSystem(g, core.DefaultK)
	for _, p := range replicaOrder {
		if err := sys.Enable(p); err != nil {
			return nil, err
		}
	}
	sys.EnableResultCache(core.DefaultCacheEntries)
	return sys, nil
}

// serveTraced serves srv on a loopback listener behind a middleware
// that records a span around ServeHTTP for requests marked as traced.
func serveTraced(srv *server.Server, rec *recorder) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	mw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Bench-Trace") != "1" {
			srv.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Parent"))
		name := "server.query_handle"
		if r.Method == http.MethodPost {
			name = "server.batch_handle"
		}
		sp := rec.begin(name, req, parent)
		srv.ServeHTTP(w, r)
		rec.end(sp)
	})
	hs := &http.Server{Handler: mw, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns ErrServerClosed after Close
	}()
	var closed bool
	shutdown := func() {
		if closed {
			return
		}
		closed = true
		_ = hs.Close() // closing an in-process loopback server cannot fail usefully
		<-done
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

// traceRequest sends one replay request; traced requests carry the
// request ID and parent span for the middleware.
func traceRequest(ctx context.Context, hc *http.Client, method, url string, body []byte, req uint64, parent int, traced bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if traced {
		r.Header.Set("X-Bench-Trace", "1")
		r.Header.Set("X-Request-Id", strconv.FormatUint(req, 10))
		r.Header.Set("X-Bench-Parent", strconv.Itoa(parent))
	}
	resp, err := hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	return b, nil
}

// replayRead sends one read three ways and compares the answers: the
// HTTP answer must equal core's (cached or computed), and on a cache
// miss core's fresh answer must equal the replica's at the same version.
func replayRead(ctx context.Context, t *traceOutcome, rec *recorder, hc *http.Client, base string,
	sysB *core.System, rep *replica, req uint64, op readOp) (readRec, error) {
	rr := readRec{problem: op.problem}
	root := rec.begin("op.read", req, -1)
	defer rec.end(root)

	cs := rec.begin("client.query", req, root)
	rr.clientSpan = cs
	body, err := traceRequest(ctx, hc, http.MethodGet, base+op.path(), nil, req, cs, true)
	rec.end(cs)
	if err != nil {
		return rr, err
	}
	rr.bytes = len(body)

	cq := rec.begin("core.cached_query", req, root)
	start := time.Now()
	res, _, hit := sysB.CachedQuery(op.problem, op.source, 0, op.stale)
	rec.end(cq)
	if !hit {
		qs := rec.begin("core.query."+op.problem, req, root)
		qstart := time.Now()
		res, err = sysB.QueryCtx(ctx, op.problem, op.source)
		rr.deltaTime = time.Since(qstart)
		rec.end(qs)
		if err != nil {
			return rr, fmt.Errorf("QueryCtx: %w", err)
		}
	}
	rr.coreTime = time.Since(start)

	rs := rec.begin("replica.query", req, root)
	out, err := rep.query(ctx, req, rs, op.problem, op.source)
	rec.end(rs)
	if err != nil {
		return rr, err
	}
	rr.hash = hashValues(out.values)

	var b queryBody
	if err := json.Unmarshal(body, &b); err != nil {
		return rr, fmt.Errorf("decoding replay answer: %w", err)
	}
	if b.Version != res.Version {
		t.failf("read %d %s/%d: HTTP version %d, core %d", req, op.problem, op.source, b.Version, res.Version)
	} else if d := firstDiff(b.Values, res.Values); d != "" {
		t.failf("read %d %s/%d@%d: HTTP vs core: %s", req, op.problem, op.source, b.Version, d)
	}
	if !hit {
		if out.version != res.Version {
			t.failf("read %d %s/%d: replica version %d, core %d", req, op.problem, op.source, out.version, res.Version)
		} else if d := firstDiff(out.values, res.Values); d != "" {
			t.failf("read %d %s/%d@%d: replica vs core.QueryCtx: %s", req, op.problem, op.source, res.Version, d)
		}
	}
	return rr, nil
}

// replayWrite applies one write three ways; all three must report the
// next version.
func replayWrite(ctx context.Context, t *traceOutcome, rec *recorder, hc *http.Client, base string,
	sysB *core.System, rep *replica, req uint64, w writeOp, want uint64) (writeRec, error) {
	wr := writeRec{del: w.del}
	kind := "insert"
	if w.del {
		kind = "delete"
	}
	root := rec.begin("op."+kind, req, -1)
	defer rec.end(root)

	cs := rec.begin("client.batch", req, root)
	wr.clientSpan = cs
	body, err := traceRequest(ctx, hc, http.MethodPost, base+w.path(), encodeWrite(w), req, cs, true)
	rec.end(cs)
	if err != nil {
		return wr, err
	}
	var br struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return wr, fmt.Errorf("decoding replay write answer: %w", err)
	}

	var (
		brep core.BatchReport
		ap   int
	)
	start := time.Now()
	if w.del {
		ap = rec.begin("core.apply_deletions", req, root)
		brep, err = sysB.ApplyDeletionsCtx(ctx, w.edges)
	} else {
		ap = rec.begin("core.apply_batch", req, root)
		brep, err = sysB.ApplyBatchCtx(ctx, w.edges)
	}
	rec.end(ap)
	wr.apply = time.Since(start)
	if err != nil {
		return wr, err
	}
	wr.standing, wr.changed = brep.StandingElapsed, brep.ChangedSources

	rs := rec.begin("replica."+kind, req, root)
	var rv uint64
	if w.del {
		rv, _ = rep.remove(req, rs, w.edges)
	} else {
		rv, _ = rep.insert(req, rs, w.edges)
	}
	rec.end(rs)
	if br.Version != want || brep.Version != want || rv != want {
		t.failf("write %d: versions HTTP %d, core %d, replica %d; want %d", req, br.Version, brep.Version, rv, want)
	}
	return wr, nil
}

func hashValues(vs []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	return h.Sum64()
}

// countPass is one GOMAXPROCS=1 replica replay.
type countPass struct {
	reads  []engine.Stats
	writes []engine.Stats
	push   []time.Duration
	hashes []uint64
}

func (a countPass) equal(b countPass) bool {
	if len(a.reads) != len(b.reads) || len(a.writes) != len(b.writes) {
		return false
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			return false
		}
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			return false
		}
	}
	return true
}

// countReplay builds a fresh replica and replays ops on it at
// GOMAXPROCS=1, where the engine's counts are a function of the inputs.
func countReplay(ctx context.Context, in *inputs, n int, edges []graph.Edge, ops []replayOp, nReads int) (countPass, error) {
	var cp countPass
	rep := newReplica(n, in.directed, edges, nil)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, op := range ops {
		if op.read < 0 {
			w := in.writes[op.write]
			var st engine.Stats
			if w.del {
				_, st = rep.remove(0, -1, w.edges)
			} else {
				_, st = rep.insert(0, -1, w.edges)
			}
			cp.writes = append(cp.writes, st)
			continue
		}
		rop := in.reads[phaseLatency][op.read]
		out, err := rep.query(ctx, 0, -1, rop.problem, rop.source)
		if err != nil {
			return cp, err
		}
		cp.reads = append(cp.reads, out.stats)
		cp.push = append(cp.push, out.push)
		cp.hashes = append(cp.hashes, hashValues(out.values))
	}
	if len(cp.reads) != nReads {
		return cp, fmt.Errorf("count replay saw %d reads, timing replay %d", len(cp.reads), nReads)
	}
	return cp, nil
}

type mirrorSnap struct{ full, delta, copied int64 }

func mirrorCounts(m *streamgraph.MirrorMetrics) mirrorSnap {
	return mirrorSnap{full: m.FullBuilds.Value(), delta: m.DeltaBuilds.Value(), copied: m.CopiedBytes.Value()}
}

func mirrorDelta(a, b mirrorSnap) mirrorSnap {
	return mirrorSnap{full: b.full - a.full, delta: b.delta - a.delta, copied: b.copied - a.copied}
}
