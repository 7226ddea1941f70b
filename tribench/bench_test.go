package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{1, 0.50, true, 1},
		{20, 0.50, true, 10},
		{0, 0.50, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(samples(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := makeInputs(w, 7, 4*time.Second)
		b := makeInputs(w, 7, 4*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two input sets from seed 7 differ", w.name)
		}
		for i := range a.writes {
			if string(encodeWrite(a.writes[i])) != string(encodeWrite(b.writes[i])) {
				t.Fatalf("%s: write %d encodes differently", w.name, i)
			}
		}
		c := makeInputs(w, 8, 4*time.Second)
		if reflect.DeepEqual(a.reads, c.reads) || reflect.DeepEqual(a.initial, c.initial) {
			t.Fatalf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
		if len(a.reads[phaseLatency]) == 0 || len(a.writes) == 0 {
			t.Fatalf("%s: empty read or write sequence", w.name)
		}
		deletes := 0
		for i, op := range a.writes {
			if op.del {
				deletes++
				if w.deleteEvery == 0 || (i+1)%w.deleteEvery != 0 || len(op.edges) != deleteEdges {
					t.Fatalf("%s: write %d is an unexpected deletion", w.name, i)
				}
			}
		}
		if (w.deleteEvery > 0) != (deletes > 0) {
			t.Fatalf("%s: %d deletions with deleteEvery=%d", w.name, deletes, w.deleteEvery)
		}
	}
}

func TestReplayOpsInterleave(t *testing.T) {
	in := makeInputs(workloads[1], 3, 4*time.Second) // ingest-directed
	ops := replayOps(in)
	reads, writes, lastWrite := 0, 0, -1
	for _, op := range ops {
		if op.read >= 0 {
			reads++
			continue
		}
		if op.write != lastWrite+1 {
			t.Fatalf("writes out of order: %d after %d", op.write, lastWrite)
		}
		lastWrite = op.write
		writes++
	}
	if reads != min(replayReads, len(in.reads[phaseLatency])) || writes != in.w.deleteEvery {
		t.Fatalf("replay has %d reads and %d writes", reads, writes)
	}
	if !in.writes[lastWrite].del {
		t.Fatalf("ingest-directed replay does not reach its first deletion")
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(40)},
		{Name: "b", Parent: 0, Start: at(30), End: at(60)},  // overlaps a
		{Name: "c", Parent: 0, Start: at(90), End: at(120)}, // runs past root
		{Name: "a1", Parent: 1, Start: at(15), End: at(20)},
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 25, 30, 30, 5}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
}

// smallInputs builds a tiny workload by hand so the gate can be driven
// against a real in-process server quickly.
func smallInputs(t *testing.T) *inputs {
	t.Helper()
	edges := gen.RMAT(gen.Config{LogN: 9, AvgDegree: 8, MaxWeight: 64, Seed: 5})
	st := gen.MakeStream(1<<9, edges, false, 0.8, 64, 5)
	in := &inputs{w: workloads[0], seed: 5, n: 1 << 9, initial: st.Initial,
		writes: makeWrites(st.Batches, 3, xrand.New(5)), reads: map[phase][]readOp{}}
	for i := 0; i < 6; i++ {
		in.reads[phaseLatency] = append(in.reads[phaseLatency], readOp{problem: problems[i%3], source: graph.VertexID(i * 37)})
	}
	return in
}

// serveSmall answers the small workload through the real serving stack
// and returns the read and write results the gate consumes.
func serveSmall(t *testing.T, in *inputs) (uint64, []result, []result) {
	t.Helper()
	g := streamgraph.New(in.n, in.directed)
	g.InsertEdges(in.initial)
	sys, err := newSystem(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sys, g))
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.close()
	ctx := context.Background()
	v0 := g.Acquire().Version()
	wr := newWriter(c, in.writes)
	var reads, writes []result
	for i, op := range in.reads[phaseLatency] {
		if i%2 == 1 && wr.next < 3 {
			writes = append(writes, wr.send(ctx, phaseLatency, time.Time{}))
		}
		r := result{phase: phaseLatency, index: i}
		c.read(ctx, op, true, &r)
		reads = append(reads, r)
	}
	return v0, reads, writes
}

func TestGateAcceptsServerAndRejectsTampering(t *testing.T) {
	in := smallInputs(t)
	if !in.writes[2].del {
		t.Fatalf("write 2 should be a deletion")
	}
	v0, reads, writes := serveSmall(t, in)
	if g := checkRun(in, v0, reads, writes); len(g.failures) != 0 || g.checked != len(reads) {
		t.Fatalf("honest run: checked %d of %d, failures %v", g.checked, len(reads), g.failures)
	}

	tamper := func(i int, edit func(b *queryBody)) []result {
		out := append([]result(nil), reads...)
		var b queryBody
		if err := json.Unmarshal(out[i].body, &b); err != nil {
			t.Fatal(err)
		}
		edit(&b)
		body, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		out[i].body, out[i].version = body, b.Version
		return out
	}
	// A single wrong value in one answer.
	bad := tamper(3, func(b *queryBody) { b.Values[len(b.Values)/2]-- })
	if g := checkRun(in, v0, bad, writes); len(g.failures) == 0 {
		t.Fatalf("gate accepted a tampered value")
	}
	// An answer stamped with a version the server never published.
	bad = tamper(5, func(b *queryBody) { b.Version = v0 + uint64(len(writes)) + 1 })
	if g := checkRun(in, v0, bad, writes); len(g.failures) == 0 {
		t.Fatalf("gate accepted an answer from an unpublished version")
	}
	// An answer to a different source than the one asked.
	bad = tamper(1, func(b *queryBody) { b.Source++ })
	if g := checkRun(in, v0, bad, writes); len(g.failures) == 0 {
		t.Fatalf("gate accepted an answer to another source")
	}

	// Write responses that skip a version.
	skipped := append([]result(nil), writes...)
	skipped[1].version++
	if g := checkRun(in, v0, reads, skipped); len(g.failures) == 0 {
		t.Fatalf("gate accepted non-consecutive write versions")
	}
}

func TestReplicaMatchesCore(t *testing.T) {
	in := smallInputs(t)
	g := streamgraph.New(in.n, in.directed)
	g.InsertEdges(in.initial)
	sys, err := newSystem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReplica(in.n, in.directed, in.initial, nil)
	ctx := context.Background()
	for step, w := range in.writes[:3] {
		var v uint64
		if w.del {
			v, _ = rep.remove(0, -1, w.edges)
			_, err = sys.ApplyDeletionsCtx(ctx, w.edges)
		} else {
			v, _ = rep.insert(0, -1, w.edges)
			_, err = sys.ApplyBatchCtx(ctx, w.edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range in.reads[phaseLatency] {
			want, err := sys.QueryCtx(ctx, op.problem, op.source)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.query(ctx, 0, -1, op.problem, op.source)
			if err != nil {
				t.Fatal(err)
			}
			if got.version != want.Version || got.version != v {
				t.Fatalf("step %d: replica at version %d, core %d", step, got.version, want.Version)
			}
			if d := firstDiff(got.values, want.Values); d != "" {
				t.Fatalf("step %d %s/%d: %s", step, op.problem, op.source, d)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step: same names, same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	h := &httpOutcome{setup: []time.Duration{time.Second}, rssMB: 100,
		rounds: []roundOutcome{{capReads: 10, capTime: time.Second}}}
	for i := 0; i < 200; i++ {
		h.reads = append(h.reads, result{kind: opRead, phase: phaseLatency, status: 200,
			sent: time.Unix(0, 0), done: time.Unix(0, int64(i+1)*int64(time.Millisecond))})
	}
	h.writes = append(h.writes, result{kind: opInsert, phase: phaseIngest, status: 200,
		sent: time.Unix(0, 0), done: time.Unix(1, 0)})
	compare := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		gotUnits := map[string]string{}
		for k, v := range got {
			gotUnits[k] = v.Unit
		}
		if !reflect.DeepEqual(want, gotUnits) {
			var missing, extra []string
			for k := range want {
				if _, ok := gotUnits[k]; !ok {
					missing = append(missing, k)
				}
			}
			for k, u := range gotUnits {
				if want[k] != u {
					extra = append(extra, k+" ["+u+"]")
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			t.Errorf("%s: declared but not printed %v; printed but not declared (or other unit) %v", kind, missing, extra)
		}
	}
	compare("end_to_end", spec.EndToEnd, h.endToEnd())
	tr := &timedReplay{full: map[string][]float64{}, delta: map[string][]float64{}}
	compare("per_layer", spec.PerLayer, layerMetrics(h, tr, countPass{}, true))
}
