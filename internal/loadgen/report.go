package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"tripoline/internal/metrics"
)

// LatencyBuckets is the bucket layout every loadgen latency histogram
// uses: 50µs to ~38s at constant ×1.5 relative spacing — fine enough
// that p999 interpolation is meaningful for sub-millisecond Δ-hits and
// still covers a saturated queue. Shared (via internal/metrics) with
// the server's own instruments so quantiles mean the same thing on
// both sides of the wire.
var LatencyBuckets = metrics.ExpBuckets(50e-6, 1.5, 34)

// The tracked status codes, in reporting order. Everything else falls
// into the "other" slot — a conformance-relevant surprise, since the
// server's documented vocabulary is exactly this set.
var trackedStatus = [...]int{200, 204, 400, 404, 429, 499, 503, 504}

const (
	slotOther       = len(trackedStatus)     // untracked HTTP status
	slotTransport   = len(trackedStatus) + 1 // connection/transport error
	slotClientAbort = len(trackedStatus) + 2 // abandoned by our own cancel
	numSlots        = len(trackedStatus) + 3
)

func statusSlot(status int) int {
	for i, s := range trackedStatus {
		if s == status {
			return i
		}
	}
	return slotOther
}

// keyStats accumulates one op key's outcomes. All fields are updated
// with single atomic operations, so a mid-run SIGINT summary can
// snapshot while workers are still recording.
type keyStats struct {
	lat   *metrics.Histogram
	slots [numSlots]metrics.Counter
	// missingRetryAfter counts 429 responses without a Retry-After
	// header — a contract violation the conformance suite also asserts
	// on; any nonzero count fails the run's contract check.
	missingRetryAfter metrics.Counter
}

// Recorder collects OpStats per op key for one run.
type Recorder struct {
	mu    sync.RWMutex
	ops   map[string]*keyStats
	start time.Time
}

// NewRecorder starts an empty recorder; start stamps the run for RPS
// accounting.
func NewRecorder(start time.Time) *Recorder {
	return &Recorder{ops: make(map[string]*keyStats), start: start}
}

func (r *Recorder) get(key string) *keyStats {
	r.mu.RLock()
	st := r.ops[key]
	r.mu.RUnlock()
	if st != nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st = r.ops[key]; st == nil {
		st = &keyStats{lat: metrics.NewHistogram(LatencyBuckets)}
		r.ops[key] = st
	}
	return st
}

// RecordHTTP records one completed HTTP exchange.
func (r *Recorder) RecordHTTP(key string, status int, hasRetryAfter bool, latency time.Duration) {
	st := r.get(key)
	st.lat.Observe(latency.Seconds())
	st.slots[statusSlot(status)].Inc()
	if status == 429 && !hasRetryAfter {
		st.missingRetryAfter.Inc()
	}
}

// RecordTransportErr records a request that failed below HTTP (refused
// connection, reset, malformed response).
func (r *Recorder) RecordTransportErr(key string, latency time.Duration) {
	st := r.get(key)
	st.lat.Observe(latency.Seconds())
	st.slots[slotTransport].Inc()
}

// RecordClientAbort records a request the driver itself abandoned (the
// cancel-storm op): the outcome is deliberate, tracked separately from
// transport failures.
func (r *Recorder) RecordClientAbort(key string, latency time.Duration) {
	st := r.get(key)
	st.lat.Observe(latency.Seconds())
	st.slots[slotClientAbort].Inc()
}

// OpReport is the immutable summary of one op key.
type OpReport struct {
	Count  int64            `json:"count"`
	Status map[string]int64 `json:"status,omitempty"` // "200" → n
	// Transport and ClientAborts are sub-HTTP outcomes (no status code).
	Transport    int64 `json:"transport_errors,omitempty"`
	ClientAborts int64 `json:"client_aborts,omitempty"`
	// MissingRetryAfter counts 429s violating the Retry-After contract.
	MissingRetryAfter int64 `json:"missing_retry_after,omitempty"`
	// Latency quantiles in seconds, interpolated from the histogram.
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario    string  `json:"scenario"`
	Target      string  `json:"target"`
	Seed        uint64  `json:"seed"`
	Workers     int     `json:"workers"`
	RateRPS     float64 `json:"offered_rps"` // 0 = unpaced closed loop
	Seconds     float64 `json:"seconds"`     // actual wall time
	Total       int64   `json:"total_requests"`
	AchievedRPS float64 `json:"achieved_rps"`
	Interrupted bool    `json:"interrupted,omitempty"`
	Drained     bool    `json:"drained,omitempty"`
	// Ops keys are op names (see Op.String) plus per-problem query
	// sub-keys like "query/SSSP".
	Ops map[string]OpReport `json:"ops"`
}

// Snapshot freezes the recorder into a Report. Safe to call while
// workers are still recording (the SIGINT path does).
func (r *Recorder) Snapshot(now time.Time) *Report {
	rep := &Report{Ops: make(map[string]OpReport)}
	rep.Seconds = now.Sub(r.start).Seconds()
	r.mu.RLock()
	keys := make([]string, 0, len(r.ops))
	for k := range r.ops {
		keys = append(keys, k)
	}
	stats := make([]*keyStats, len(keys))
	for i, k := range keys {
		stats[i] = r.ops[k]
	}
	r.mu.RUnlock()
	for i, k := range keys {
		st := stats[i]
		or := OpReport{
			Status: make(map[string]int64),
			P50:    st.lat.Quantile(0.50),
			P99:    st.lat.Quantile(0.99),
			P999:   st.lat.Quantile(0.999),
		}
		for s := range trackedStatus {
			if n := st.slots[s].Value(); n > 0 {
				or.Status[fmt.Sprintf("%d", trackedStatus[s])] = n
				or.Count += n
			}
		}
		if n := st.slots[slotOther].Value(); n > 0 {
			or.Status["other"] = n
			or.Count += n
		}
		or.Transport = st.slots[slotTransport].Value()
		or.ClientAborts = st.slots[slotClientAbort].Value()
		or.Count += or.Transport + or.ClientAborts
		or.MissingRetryAfter = st.missingRetryAfter.Value()
		if c := st.lat.Count(); c > 0 {
			or.Mean = st.lat.Sum() / float64(c)
		}
		rep.Ops[k] = or
		// Per-problem sub-keys ("query/SSSP") describe the same requests
		// the op-level key already counted; only top-level keys roll up.
		if !isSubKey(k) {
			rep.Total += or.Count
		}
	}
	if rep.Seconds > 0 {
		rep.AchievedRPS = float64(rep.Total) / rep.Seconds
	}
	return rep
}

func isSubKey(k string) bool {
	for i := 0; i < len(k); i++ {
		if k[i] == '/' {
			return true
		}
	}
	return false
}

// ContractViolations lists any protocol-contract breaches the run
// observed (currently: 429 without Retry-After). Empty means clean.
func (rep *Report) ContractViolations() []string {
	var out []string
	for _, k := range sortedKeys(rep.Ops) {
		if n := rep.Ops[k].MissingRetryAfter; n > 0 {
			out = append(out, fmt.Sprintf("%s: %d×429 without Retry-After", k, n))
		}
	}
	return out
}

func sortedKeys(m map[string]OpReport) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the human summary: one row per op with counts,
// status breakdown, and quantiles in milliseconds.
func (rep *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario %-17s %8.1fs  %8d requests  %10.1f req/s", rep.Scenario, rep.Seconds, rep.Total, rep.AchievedRPS)
	if rep.Interrupted {
		fmt.Fprintf(w, "  [interrupted]")
	}
	if rep.Drained {
		fmt.Fprintf(w, "  [drained mid-run]")
	}
	fmt.Fprintln(w)
	for _, k := range sortedKeys(rep.Ops) {
		or := rep.Ops[k]
		fmt.Fprintf(w, "  %-22s %8d  p50=%8.3fms p99=%8.3fms p999=%8.3fms", k, or.Count, or.P50*1e3, or.P99*1e3, or.P999*1e3)
		for _, s := range []string{"200", "204", "400", "404", "429", "499", "503", "504", "other"} {
			if n := or.Status[s]; n > 0 {
				fmt.Fprintf(w, "  %s=%d", s, n)
			}
		}
		if or.Transport > 0 {
			fmt.Fprintf(w, "  transport=%d", or.Transport)
		}
		if or.ClientAborts > 0 {
			fmt.Fprintf(w, "  aborted=%d", or.ClientAborts)
		}
		fmt.Fprintln(w)
	}
	for _, v := range rep.ContractViolations() {
		fmt.Fprintf(w, "  CONTRACT VIOLATION: %s\n", v)
	}
}

// ---------------------------------------------------------------------
// BENCH_loadgen.json — the per-PR trajectory file, in the same
// github-action-benchmark data.js shape the kernel sweep emits, so
// both feed the same dashboards.

type benchFile struct {
	LastUpdate int64                   `json:"lastUpdate"`
	RepoURL    string                  `json:"repoUrl"`
	Entries    map[string][]benchEntry `json:"entries"`
}

type benchEntry struct {
	Commit  benchCommit `json:"commit"`
	Date    int64       `json:"date"`
	Tool    string      `json:"tool"`
	Benches []benchItem `json:"benches"`
}

type benchCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message"`
	Timestamp string `json:"timestamp"`
}

type benchItem struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// WriteBenchJSON serializes scenario reports plus the saturation sweep
// as one dashboard entry: per-endpoint p50/p99/p999 series, achieved
// RPS per scenario, and the saturation curve per -max-inflight setting.
func WriteBenchJSON(w io.Writer, reports []*Report, sweep []SweepPoint, commit string, ts time.Time) error {
	entry := benchEntry{
		Commit: benchCommit{ID: commit, Message: "loadgen scenario + saturation sweep", Timestamp: ts.UTC().Format(time.RFC3339)},
		Date:   ts.UnixMilli(),
		Tool:   "go",
	}
	for _, rep := range reports {
		base := "loadgen/" + rep.Scenario
		entry.Benches = append(entry.Benches, benchItem{
			Name: base + "/achieved_rps", Value: rep.AchievedRPS, Unit: "req/s",
			Extra: fmt.Sprintf("workers=%d total=%d seconds=%.1f", rep.Workers, rep.Total, rep.Seconds),
		})
		for _, k := range sortedKeys(rep.Ops) {
			or := rep.Ops[k]
			if or.Count == 0 {
				continue
			}
			entry.Benches = append(entry.Benches,
				benchItem{Name: base + "/" + k + "/p50", Value: or.P50 * 1e3, Unit: "ms", Extra: fmt.Sprintf("count=%d", or.Count)},
				benchItem{Name: base + "/" + k + "/p99", Value: or.P99 * 1e3, Unit: "ms"},
				benchItem{Name: base + "/" + k + "/p999", Value: or.P999 * 1e3, Unit: "ms"},
			)
		}
	}
	for _, pt := range sweep {
		base := fmt.Sprintf("loadgen/saturation/max-inflight=%d", pt.MaxInFlight)
		entry.Benches = append(entry.Benches,
			benchItem{
				Name: base + "/achieved_rps", Value: pt.AchievedRPS, Unit: "req/s",
				Extra: fmt.Sprintf("total=%d rejected=%d workers=%d", pt.Total, pt.Rejected, pt.Workers),
			},
			benchItem{Name: base + "/p50", Value: pt.P50 * 1e3, Unit: "ms"},
			benchItem{Name: base + "/p99", Value: pt.P99 * 1e3, Unit: "ms"},
			benchItem{Name: base + "/p999", Value: pt.P999 * 1e3, Unit: "ms"},
		)
	}
	file := benchFile{
		LastUpdate: ts.UnixMilli(),
		RepoURL:    "",
		Entries:    map[string][]benchEntry{"Loadgen": {entry}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}
