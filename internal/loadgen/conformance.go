package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"tripoline/internal/server"
	"tripoline/internal/xrand"
)

// The conformance suite replays one deterministic op trace against two
// self-hosted servers — one with the Δ-result cache on, one with it
// off, both retaining 8 snapshots of history — and compares what the
// wire actually said: status codes, error envelope codes, the
// X-Tripoline-Version header, and a hash of the answer values. The
// cache promises to be invisible to clients apart from its own headers
// (a fresh read answers at the current version with exactly the
// evaluated values); this suite is that promise, executable. Every step,
// subscriptions included, is compared strictly.

// ConformanceConfig shapes one conformance run. The zero value is
// usable: 1024 vertices, 160 steps, seed 1.
type ConformanceConfig struct {
	Vertices int
	Edges    int
	Steps    int
	Seed     uint64
}

func (c ConformanceConfig) withDefaults() ConformanceConfig {
	if c.Vertices <= 0 {
		c.Vertices = 1024
	}
	if c.Edges <= 0 {
		c.Edges = 6 * c.Vertices
	}
	if c.Steps <= 0 {
		c.Steps = 160
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Observation is what one endpoint said, reduced to the comparable
// contract surface. Seconds/timings are deliberately absent.
type Observation struct {
	Status     int
	ErrCode    string // envelope code when Status >= 400
	Version    string // X-Tripoline-Version header, "" when absent
	ValuesHash uint64 // FNV-1a over the answer values, 0 when not hashed
	RetryAfter bool
}

func (o Observation) String() string {
	s := strconv.Itoa(o.Status)
	if o.ErrCode != "" {
		s += "/" + o.ErrCode
	}
	if o.Version != "" {
		s += " v" + o.Version
	}
	if o.ValuesHash != 0 {
		s += fmt.Sprintf(" h%016x", o.ValuesHash)
	}
	return s
}

// Divergence is one contract mismatch between the two servers.
type Divergence struct {
	Step     int    `json:"step"`
	Op       string `json:"op"`
	Desc     string `json:"desc"`
	Field    string `json:"field"`
	Cached   string `json:"cached"`   // result-cache-on observation
	Uncached string `json:"uncached"` // result-cache-off observation
}

func (d Divergence) String() string {
	return fmt.Sprintf("step %d %s (%s): %s — cached=%s uncached=%s", d.Step, d.Op, d.Desc, d.Field, d.Cached, d.Uncached)
}

// ConformanceReport summarizes one run; any divergence fails it.
// CacheHits counts the reads the cached server answered from its result
// cache at the current version: a run with none never diffed a cached
// answer.
type ConformanceReport struct {
	Steps       int          `json:"steps"`
	Seed        uint64       `json:"seed"`
	CacheHits   uint64       `json:"cache_hits"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// traceStep is one deterministic op: the same request is issued to both
// servers, and flags say which contract fields must agree.
type traceStep struct {
	op     string
	method string
	path   string
	body   []byte
	desc   string
	// compareVersion/compareValues gate the strong checks; status and
	// error code are always compared.
	compareVersion bool
	compareValues  bool
}

// RunConformance builds the two servers, replays the trace, and reports
// every divergence. The error return is for harness trouble (a server
// failed to build, the transport died) — contract mismatches are data,
// not errors.
func RunConformance(ctx context.Context, cfg ConformanceConfig) (*ConformanceReport, error) {
	cfg = cfg.withDefaults()
	uncachedCfg := SelfHostConfig{
		Vertices: cfg.Vertices,
		Edges:    cfg.Edges,
		// The integer-semiring problems: answers are hashed bit for bit.
		// PageRank is only 1e-6-equal, so it stays out of the trace.
		Problems:        []string{"SSSP", "SSWP", "BFS"},
		K:               8,
		Seed:            cfg.Seed,
		HistoryCapacity: 8,
	}
	cachedCfg := uncachedCfg
	cachedCfg.CacheEntries = 64

	a, err := SelfHost(cachedCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: conformance: cached server: %w", err)
	}
	defer a.Close()
	b, err := SelfHost(uncachedCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: conformance: uncached server: %w", err)
	}
	defer b.Close()

	rep := &ConformanceReport{Steps: cfg.Steps, Seed: cfg.Seed}
	hc := &http.Client{Timeout: 30 * time.Second}
	tr := &tracer{rng: xrand.New(cfg.Seed), vertices: cfg.Vertices, problems: uncachedCfg.Problems}

	for i := 0; i < cfg.Steps; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		step := tr.next()
		oa, err := observe(ctx, hc, a.URL, step)
		if err != nil {
			return rep, fmt.Errorf("loadgen: conformance: step %d against cached: %w", i, err)
		}
		ob, err := observe(ctx, hc, b.URL, step)
		if err != nil {
			return rep, fmt.Errorf("loadgen: conformance: step %d against uncached: %w", i, err)
		}
		rep.Divergences = append(rep.Divergences, compare(i, step, oa, ob)...)
	}
	cm := a.sys.ResultCacheMetrics()
	rep.CacheHits = cm.Hits - cm.StaleServed
	return rep, nil
}

// tracer generates the deterministic op trace. Writes mutate its model
// of the current version so queryat steps always name a live snapshot.
type tracer struct {
	rng      *xrand.RNG
	vertices int
	problems []string
	writes   uint64 // applied write batches (tracks server version growth)
	last     traceStep
}

func (t *tracer) problem() string { return t.problems[t.rng.Intn(len(t.problems))] }

// source draws half its picks from 8 hot vertices, so reads repeat
// (problem, source) keys across writes: a cache that served an entry
// past its version would answer them differently.
func (t *tracer) source() int {
	if t.rng.Intn(2) == 0 {
		return t.rng.Intn(min(8, t.vertices))
	}
	return t.rng.Intn(t.vertices)
}

// next returns the trace's next step. A third of the steps after a plain
// query re-issue it: with no write in between, the cached server answers
// from its result cache, the path the replay exists to diff.
func (t *tracer) next() traceStep {
	if t.last.op == "query" && t.rng.Intn(3) == 0 {
		return t.last
	}
	t.last = t.draw()
	return t.last
}

func (t *tracer) draw() traceStep {
	// Weighted cycle: reads dominate, every family appears.
	switch roll := t.rng.Intn(100); {
	case roll < 25: // plain query
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/query?problem=%s&source=%d", p, u),
			desc:           fmt.Sprintf("%s src=%d", p, u),
			compareVersion: true, compareValues: true,
		}
	case roll < 35: // full materialization
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query_full", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/query?problem=%s&source=%d&full=1", p, u),
			desc:           fmt.Sprintf("%s src=%d full", p, u),
			compareVersion: true, compareValues: true,
		}
	case roll < 45: // batched multi-source
		p := t.problem()
		k := 2 + t.rng.Intn(4)
		sources := make([]uint32, k)
		for i := range sources {
			sources[i] = uint32(t.source())
		}
		body, _ := json.Marshal(map[string]any{"problem": p, "sources": sources})
		return traceStep{
			op: "querymany", method: http.MethodPost, path: "/v1/querymany", body: body,
			desc:           fmt.Sprintf("%s k=%d", p, k),
			compareVersion: true, compareValues: true,
		}
	case roll < 53: // historical read: recent versions stay inside the window
		p, u := t.problem(), t.source()
		back := uint64(t.rng.Intn(3))
		v := uint64(1)
		if t.writes+1 > back {
			v = t.writes + 1 - back
		}
		return traceStep{
			op: "queryat", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/queryat?problem=%s&source=%d&version=%d", p, u, v),
			desc:           fmt.Sprintf("%s src=%d v=%d", p, u, v),
			compareVersion: true, compareValues: true,
		}
	case roll < 60: // stale read: status contract only (cache freshness may differ)
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query_stale", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?problem=%s&source=%d&stale=ok", p, u),
			desc: fmt.Sprintf("%s src=%d stale", p, u),
		}
	case roll < 75: // write batch — applied identically to both servers
		k := 8 + t.rng.Intn(25)
		edges := make([]map[string]any, k)
		for i := range edges {
			edges[i] = map[string]any{
				"src": uint32(t.source()), "dst": uint32(t.source()),
				"w": uint32(1 + t.rng.Intn(8)),
			}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		t.writes++
		return traceStep{
			op: "batch", method: http.MethodPost, path: "/v1/batch", body: body,
			desc:           fmt.Sprintf("%d edges", k),
			compareVersion: true,
		}
	case roll < 80: // delete — same edges may or may not exist; both sides agree
		k := 1 + t.rng.Intn(4)
		edges := make([]map[string]any, k)
		for i := range edges {
			edges[i] = map[string]any{"src": uint32(t.source()), "dst": uint32(t.source())}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		t.writes++
		return traceStep{
			op: "delete", method: http.MethodPost, path: "/v1/delete", body: body,
			desc:           fmt.Sprintf("%d edges", k),
			compareVersion: true,
		}
	case roll < 86: // stats: shape and version must agree
		return traceStep{
			op: "stats", method: http.MethodGet, path: "/v1/stats", desc: "stats",
			compareValues: true,
		}
	case roll < 90: // malformed: missing problem
		return traceStep{
			op: "bad_request", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?source=%d", t.source()),
			desc: "missing problem",
		}
	case roll < 94: // unknown problem
		return traceStep{
			op: "not_found", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?problem=NOPE&source=%d", t.source()),
			desc: "unknown problem",
		}
	case roll < 97: // long-poll subscribe
		p, u := t.problem(), t.source()
		return traceStep{
			op: "poll", method: http.MethodGet,
			path: fmt.Sprintf("/v1/subscribe?problem=%s&src=%d&mode=poll&wait=1", p, u),
			desc: fmt.Sprintf("%s src=%d poll", p, u),
		}
	default: // SSE subscribe
		p, u := t.problem(), t.source()
		return traceStep{
			op: "subscribe", method: http.MethodGet,
			path:          fmt.Sprintf("/v1/subscribe?problem=%s&src=%d", p, u),
			desc:          fmt.Sprintf("%s src=%d sse", p, u),
			compareValues: true, // both streams open with a snapshot frame
		}
	}
}

// observe issues one step and reduces the response to its contract
// surface. SSE responses are read up to the first frame then abandoned.
func observe(ctx context.Context, hc *http.Client, base string, step traceStep) (Observation, error) {
	// Subscribe streams don't end on their own; bound them.
	rctx := ctx
	if step.op == "subscribe" || step.op == "poll" {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
	}
	var rd io.Reader
	if step.body != nil {
		rd = bytes.NewReader(step.body)
	}
	req, err := http.NewRequestWithContext(rctx, step.method, base+step.path, rd)
	if err != nil {
		return Observation{}, err
	}
	if step.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Observation{}, err
	}
	defer resp.Body.Close()

	obs := Observation{
		Status:     resp.StatusCode,
		Version:    resp.Header.Get("X-Tripoline-Version"),
		RetryAfter: resp.Header.Get("Retry-After") != "",
	}
	switch {
	case resp.StatusCode >= 400:
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
			obs.ErrCode = env.Error.Code
		}
	case step.op == "subscribe" && resp.StatusCode == http.StatusOK:
		// Record whether a snapshot frame arrived first: a liveness check
		// on the stream that is cheap to abandon.
		out, err := consumeSSE(resp.Body, 1)
		if err == nil && out.Frames > 0 && out.Snapshot {
			obs.ValuesHash = hashStrings("snapshot")
		}
		// The stream never ends on its own: abandon it here rather than
		// drain it, which would hold the step until rctx expires.
		return obs, nil
	case resp.StatusCode == http.StatusOK:
		if err := hashBody(resp.Body, step, &obs); err != nil {
			return obs, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return obs, nil
}

// hashBody decodes the comparable fields of a 200 body — values, width,
// version, stats shape — and folds them into the observation. Timing
// fields never participate.
func hashBody(r io.Reader, step traceStep, obs *Observation) error {
	var body struct {
		Values   []uint64 `json:"values"`
		Value    *uint64  `json:"value"`
		Width    int      `json:"width"`
		Version  *uint64  `json:"version"`
		Vertices int      `json:"vertices"`
		Edges    int64    `json:"edges"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return fmt.Errorf("decoding %s body: %w", step.op, err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if step.compareValues {
		for _, v := range body.Values {
			put(v)
		}
		if body.Value != nil {
			put(*body.Value)
		}
		put(uint64(body.Width))
		put(uint64(body.Vertices))
		put(uint64(body.Edges))
	}
	if body.Version != nil {
		put(*body.Version)
		// Body version doubles as the header when the endpoint reports it
		// only in JSON (/v1/stats, /v1/batch).
		if obs.Version == "" {
			obs.Version = strconv.FormatUint(*body.Version, 10)
		}
	}
	obs.ValuesHash = h.Sum64()
	return nil
}

func hashStrings(ss ...string) uint64 {
	h := fnv.New64a()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// compare reduces two observations of one step to divergences.
func compare(i int, step traceStep, a, b Observation) []Divergence {
	mk := func(field, av, bv string) Divergence {
		return Divergence{Step: i, Op: step.op, Desc: step.desc, Field: field, Cached: av, Uncached: bv}
	}
	var out []Divergence
	if a.Status != b.Status {
		out = append(out, mk("status", a.String(), b.String()))
		return out // downstream fields are meaningless across differing statuses
	}
	if a.Status >= 400 && a.ErrCode != b.ErrCode {
		out = append(out, mk("error_code", a.ErrCode, b.ErrCode))
	}
	if a.Status == 429 && (a.RetryAfter != b.RetryAfter || !a.RetryAfter) {
		out = append(out, mk("retry_after", fmt.Sprint(a.RetryAfter), fmt.Sprint(b.RetryAfter)))
	}
	if a.Status == http.StatusOK {
		if step.compareVersion && a.Version != b.Version {
			out = append(out, mk("version", a.Version, b.Version))
		}
		if step.compareValues && a.ValuesHash != b.ValuesHash {
			out = append(out, mk("values", a.String(), b.String()))
		}
	}
	return out
}

// admissionEndpoints is every gated endpoint the 429 probe exercises.
// Paths take fmt verbs for problem/source where needed.
type admissionEndpoint struct {
	name   string
	method string
	path   string
	body   string
}

var admissionEndpoints = []admissionEndpoint{
	{"query", http.MethodGet, "/v1/query?problem=SSSP&source=1&full=1", ""},
	{"queryat", http.MethodGet, "/v1/queryat?problem=SSSP&source=1&version=1", ""},
	{"querymany", http.MethodPost, "/v1/querymany", `{"problem":"SSSP","sources":[1,2]}`},
	{"batch", http.MethodPost, "/v1/batch", `{"edges":[{"src":1,"dst":2,"w":3}]}`},
	{"delete", http.MethodPost, "/v1/delete", `{"edges":[{"src":1,"dst":2}]}`},
	{"subscribe", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1", ""},
	{"poll", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1&mode=poll&wait=1", ""},
}

// ProbeAdmission saturates a MaxInFlight=1/QueueDepth=0 server by
// pinning one admitted request inside the handler (via the server's
// admitted hook), then hits every gated endpoint and asserts the
// saturation contract: status 429, error code "overloaded"-family
// envelope, and a Retry-After header — on every endpoint. Returns the violations (empty means the contract holds).
//
// Not safe to run concurrently with other servers in-process: the
// admitted hook is package-global.
func ProbeAdmission(ctx context.Context) ([]string, error) {
	t, err := SelfHost(SelfHostConfig{
		Vertices: 256, Edges: 1024,
		Problems: []string{"SSSP"}, K: 4,
		MaxInFlight: 1, QueueDepth: 0,
		HistoryCapacity: 4,
		// No result cache: a cache hit legitimately bypasses the gate and
		// would turn the probe's deterministic 429 into a 200.
	})
	if err != nil {
		return nil, err
	}
	defer t.Close()

	admitted := make(chan struct{})
	release := make(chan struct{})
	restore := server.SetTestHookAdmitted(func(string) {
		admitted <- struct{}{}
		<-release
	})

	blockerDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL+"/v1/query?problem=SSSP&source=0&full=1", nil)
		if err != nil {
			blockerDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			blockerDone <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		blockerDone <- nil
	}()

	select {
	case <-admitted:
	case err := <-blockerDone:
		restore()
		return nil, fmt.Errorf("loadgen: admission probe blocker died before admission: %v", err)
	case <-ctx.Done():
		restore()
		return nil, ctx.Err()
	}

	var violations []string
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, ep := range admissionEndpoints {
		var rd io.Reader
		if ep.body != "" {
			rd = bytes.NewReader([]byte(ep.body))
		}
		req, err := http.NewRequestWithContext(ctx, ep.method, t.URL+ep.path, rd)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: building request: %v", ep.name, err))
			continue
		}
		if ep.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: transport: %v", ep.name, err))
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			violations = append(violations, fmt.Sprintf("%s: status %d, want 429", ep.name, resp.StatusCode))
		}
		if resp.Header.Get("Retry-After") == "" {
			violations = append(violations, fmt.Sprintf("%s: 429 without Retry-After", ep.name))
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	close(release)
	restore()
	if err := <-blockerDone; err != nil {
		return violations, fmt.Errorf("loadgen: admission probe blocker: %v", err)
	}
	return violations, nil
}
