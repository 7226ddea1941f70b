package loadgen

import (
	"context"
	"testing"
	"time"

	"tripoline/internal/xrand"
)

// TestConformanceCacheOnVsOff replays the seeded trace against a
// result-cache-on and a result-cache-off server (both with history) and
// requires zero divergences: same status codes, same error envelope
// codes, same X-Tripoline-Version, bit-identical answer hashes, on every
// step including subscriptions. The trace must reach every op family,
// or a clean report proves nothing about the families it skipped.
func TestConformanceCacheOnVsOff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ConformanceConfig{Vertices: 512, Edges: 2048, Steps: 200, Seed: 7}
	if testing.Short() {
		cfg = ConformanceConfig{Vertices: 256, Edges: 1024, Steps: 80, Seed: 7}
	}
	tr := &tracer{rng: xrand.New(cfg.Seed), vertices: cfg.Vertices, problems: []string{"SSSP", "SSWP", "BFS"}}
	ops := map[string]int{}
	for i := 0; i < cfg.Steps; i++ {
		ops[tr.next().op]++
	}
	for _, op := range []string{"query", "query_full", "querymany", "queryat", "query_stale",
		"batch", "delete", "stats", "bad_request", "not_found", "poll", "subscribe"} {
		if ops[op] == 0 {
			t.Fatalf("seed %d trace of %d steps has no %s step (%v)", cfg.Seed, cfg.Steps, op, ops)
		}
	}

	rep, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("divergence: %s", d)
	}
	if rep.CacheHits == 0 {
		t.Errorf("the cached server served no fresh hit; the replay never diffed a cached answer")
	}
	t.Logf("conformance: %d steps, %d fresh cache hits, %d divergences", rep.Steps, rep.CacheHits, len(rep.Divergences))
}

// TestConformanceSeedStability pins determinism: the same seed must
// produce the same divergence profile twice in a row.
func TestConformanceSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("two full conformance runs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ConformanceConfig{Vertices: 256, Edges: 1024, Steps: 60, Seed: 11}
	a, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Divergences) != len(b.Divergences) {
		t.Fatalf("same seed, different profile: %d vs %d divergences",
			len(a.Divergences), len(b.Divergences))
	}
}

// TestProbeAdmission pins the saturation contract on every gated
// endpoint: a full gate answers 429 with Retry-After.
func TestProbeAdmission(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	violations, err := ProbeAdmission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
