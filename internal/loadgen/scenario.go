package loadgen

import (
	"fmt"
	"sort"
	"strings"

	"tripoline/internal/xrand"
)

// Op is one kind of request the driver can issue. The set mirrors the
// v1 API surface: the query family (plain Δ, explicit full, stale=ok
// with min_version, historical, batched), the write family (insert and
// delete batches), the push family (SSE subscribe and its long-poll
// fallback), stats, and the deliberately abandoned query of the
// cancel-storm scenario.
type Op int

const (
	OpQuery Op = iota
	OpQueryFull
	OpQueryStale // stale=ok + min_version resume
	OpQueryAt
	OpQueryMany
	OpBatch
	OpDelete
	OpSubscribe // SSE: read frames until limit/goodbye/ctx
	OpPoll      // long-poll fallback (mode=poll)
	OpStats
	OpCancel // query abandoned client-side mid-flight

	numOps
)

var opNames = [numOps]string{
	"query", "query_full", "query_stale", "queryat", "querymany",
	"batch", "delete", "subscribe", "poll", "stats", "cancel",
}

// String returns the op's stable name (the key its latency histogram
// and status counts are reported under).
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// OpWeight is one entry of a scenario mix.
type OpWeight struct {
	Op     Op
	Weight int // relative share; must be > 0
}

// Scenario is a named workload shape: a weighted op mix plus the knobs
// that make the shape meaningful (worker count, offered rate, whether
// the run drains the server halfway through).
type Scenario struct {
	Name string
	// Mix is the weighted op distribution each worker samples from.
	Mix []OpWeight
	// Workers is the default closed-loop worker count (overridable per
	// run).
	Workers int
	// Rate is the default offered request rate across all workers in
	// requests/second; 0 means unpaced (as fast as the loop closes).
	Rate float64
	// DrainMidRun asks the runner to initiate server drain at half the
	// run duration — only honored for self-hosted targets, where the
	// driver holds the server handle; against a remote target the mix
	// simply runs to completion.
	DrainMidRun bool
}

// Scenarios is the registry of built-in workload shapes, in serving
// order. Weights are percentages for readability (they only need to be
// relative).
var Scenarios = []Scenario{
	{
		// The paper's serving story: almost all traffic is arbitrary-source
		// reads over standing state, with a trickle of writes advancing the
		// graph underneath and a stale-tolerant slice exercising the
		// Δ-result cache.
		Name: "query-heavy",
		Mix: []OpWeight{
			{OpQuery, 56}, {OpQueryFull, 5}, {OpQueryStale, 15},
			{OpQueryAt, 5}, {OpQueryMany, 5},
			{OpBatch, 5}, {OpStats, 4}, {OpPoll, 5},
		},
		Workers: 16,
	},
	{
		// Continuous ingestion with concurrent reads: the evolving-graph
		// regime (stable-vertex-values framing) where write admission,
		// standing maintenance, and mirror delta-patching dominate.
		Name: "ingest-heavy",
		Mix: []OpWeight{
			{OpBatch, 50}, {OpDelete, 12},
			{OpQuery, 25}, {OpQueryStale, 8}, {OpStats, 5},
		},
		Workers: 8,
	},
	{
		// Every query is issued with a tiny client-side budget and most are
		// abandoned mid-flight: superstep-granularity cancellation, 499/504
		// mapping, and scratch reclamation under churn.
		Name: "cancel-storm",
		Mix: []OpWeight{
			{OpCancel, 70}, {OpQuery, 15}, {OpBatch, 10}, {OpStats, 5},
		},
		Workers: 24,
	},
	{
		// Standing-query serving at user scale: a large subscriber
		// population (SSE plus long-poll) fed by a steady writer trickle,
		// measuring time-to-first-frame and per-batch fan-out.
		Name: "subscribe-fanout",
		Mix: []OpWeight{
			{OpSubscribe, 40}, {OpPoll, 15},
			{OpBatch, 20}, {OpQuery, 20}, {OpStats, 5},
		},
		Workers: 16,
	},
	{
		// Steady mixed load with a drain initiated halfway: in-flight work
		// must finish, streams get their goodbye, and everything after the
		// flip is answered 503/draining — the graceful-shutdown contract
		// under pressure.
		Name: "drain-under-load",
		Mix: []OpWeight{
			{OpQuery, 40}, {OpBatch, 20}, {OpSubscribe, 15},
			{OpQueryStale, 15}, {OpStats, 10},
		},
		Workers:     12,
		DrainMidRun: true,
	},
}

// ScenarioByName finds a built-in scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// ScenarioNames lists the built-in scenario names, comma-joined — flag
// help text.
func ScenarioNames() string {
	names := make([]string, len(Scenarios))
	for i, s := range Scenarios {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// Scheduler deterministically samples a scenario's op mix: one seeded
// RNG per worker (derived from the run seed and the worker index), so
// a run's op sequence is a pure function of (scenario, seed, workers)
// regardless of scheduling interleavings. The same property makes the
// conformance trace reproducible across the replays it is diffed over.
type Scheduler struct {
	cum []int // cumulative weights, aligned with ops
	ops []Op
	rng *xrand.RNG
}

// NewScheduler builds a sampler for the mix seeded for one worker.
func NewScheduler(mix []OpWeight, seed uint64, worker int) *Scheduler {
	s := &Scheduler{rng: xrand.New(seed + uint64(worker)*0x9e3779b97f4a7c15)}
	total := 0
	for _, w := range mix {
		if w.Weight <= 0 {
			continue
		}
		total += w.Weight
		s.cum = append(s.cum, total)
		s.ops = append(s.ops, w.Op)
	}
	if total == 0 {
		panic("loadgen: scenario mix has no positive weights")
	}
	return s
}

// Next samples the next op.
func (s *Scheduler) Next() Op {
	x := s.rng.Intn(s.cum[len(s.cum)-1])
	i := sort.SearchInts(s.cum, x+1)
	return s.ops[i]
}

// RNG exposes the scheduler's generator for op parameter choices
// (sources, batch contents), keeping the whole per-worker request
// stream on one deterministic stream.
func (s *Scheduler) RNG() *xrand.RNG { return s.rng }
