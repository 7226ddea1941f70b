package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/xrand"
)

// gateSamples is how many query responses per phase the correctness
// gate recomputes from scratch.
const gateSamples = 4

// sampler picks, per run, the seeded set of read indices whose response
// bodies are kept and checked.
type sampler map[phase]map[int]bool

// newSampler draws up to gateSamples read indices per phase. The
// capacity phase draws from its first reads only, so its samples are
// sent in every run whatever the server's speed.
func newSampler(in *inputs) sampler {
	rng := xrand.New(in.seed ^ 0x6a7e)
	s := sampler{}
	for _, ph := range []phase{phaseLatency, phaseCapacity, phaseIngest} {
		limit := len(in.reads[ph])
		if ph == phaseCapacity {
			limit = min(limit, 24)
		}
		s[ph] = map[int]bool{}
		for len(s[ph]) < gateSamples && len(s[ph]) < limit {
			s[ph][rng.Intn(limit)] = true
		}
	}
	return s
}

func (s sampler) keep(ph phase, i int) bool { return s[ph][i] }

// queryBody is the part of a /v1/query response the gate checks.
type queryBody struct {
	Problem string   `json:"problem"`
	Source  uint32   `json:"source"`
	Version uint64   `json:"version"`
	Values  []uint64 `json:"values"`
}

// gateReport summarizes one correctness check.
type gateReport struct {
	checked  int
	failures []string
}

func (g *gateReport) failf(format string, args ...any) {
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// checkRun is the correctness gate of one HTTP run. Write responses must
// report consecutive versions starting right after the loaded version;
// every read must report a version the server has published; and each
// sampled read's values must equal oracle.BestPath on the graph at the
// version it reports, rebuilt from the initial edges and the write log.
func checkRun(in *inputs, v0 uint64, reads, writes []result) *gateReport {
	g := &gateReport{}
	sort.Slice(writes, func(i, j int) bool { return writes[i].index < writes[j].index })
	for i, w := range writes {
		if w.index != i {
			g.failf("write %d missing from the write log", i)
			return g
		}
		if !w.ok() {
			g.failf("write %d failed (status %d, %v): the graph version is unknown from here", i, w.status, w.err)
			return g
		}
		if want := v0 + uint64(i) + 1; w.version != want {
			g.failf("write %d reported version %d, want %d", i, w.version, want)
		}
	}
	last := v0 + uint64(len(writes))
	type sample struct {
		op   readOp
		body queryBody
	}
	byVersion := map[uint64][]sample{}
	for _, r := range reads {
		if !r.ok() {
			continue
		}
		if r.version < v0 || r.version > last {
			g.failf("%s read %d reported version %d outside [%d, %d]", r.phase, r.index, r.version, v0, last)
		}
		if r.body == nil {
			continue
		}
		op := in.reads[r.phase][r.index]
		var b queryBody
		if err := json.Unmarshal(r.body, &b); err != nil {
			g.failf("%s read %d: undecodable body: %v", r.phase, r.index, err)
			continue
		}
		if b.Problem != op.problem || graph.VertexID(b.Source) != op.source || b.Version != r.version {
			g.failf("%s read %d: answered %s/%d@%d (header version %d), asked %s/%d",
				r.phase, r.index, b.Problem, b.Source, b.Version, r.version, op.problem, op.source)
			continue
		}
		byVersion[b.Version] = append(byVersion[b.Version], sample{op: op, body: b})
	}
	if len(byVersion) == 0 {
		g.failf("no sampled query response to check")
		return g
	}
	m := newModel(in.n, in.directed, in.initial)
	reg := props.Registry()
	for v := v0; v <= last; v++ {
		if v > v0 {
			m.apply(in.writes[v-v0-1])
		}
		ss := byVersion[v]
		if len(ss) == 0 {
			continue
		}
		csr := m.csr()
		for _, s := range ss {
			want := oracle.BestPath(csr, reg[s.op.problem], s.op.source)
			g.checked++
			if diff := firstDiff(s.body.Values, want); diff != "" {
				g.failf("%s/%d at version %d: %s", s.op.problem, s.op.source, v, diff)
			}
		}
	}
	return g
}

// firstDiff describes the first disagreement between got and want.
func firstDiff(got, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, oracle has %d", len(got), len(want))
	}
	for x := range got {
		if got[x] != want[x] {
			return fmt.Sprintf("vertex %d = %d, oracle %d", x, got[x], want[x])
		}
	}
	return ""
}
