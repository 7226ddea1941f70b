package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/xrand"
)

// problems are the server's default problem set; every read picks one.
var problems = []string{"SSSP", "BFS", "SSWP"}

// workload is one traffic mix. Rates, shares and write counts are
// frozen here: changing them changes the benchmark, not the program.
//
// A run first warms up for warmupShare of the measured time with nproc
// unmeasured closed-loop readers (the latency block's mix, no writes),
// so the result cache is full and the server's heap has grown to its
// working size. Then it repeats one round `rounds` times,
// and each end-to-end figure is the median over the rounds, so a burst
// of noise on the shared machine spoils one round, not the run. A round
// has three blocks:
//   - latency: open-loop reads at readRate, plus open-loop inserts every
//     writeEvery (none when zero);
//   - capacity: nproc closed-loop readers;
//   - ingest: one closed-loop writer sending a fixed number of writes,
//     with open-loop reads at besideRate on the other connections.
type workload struct {
	name     string
	directed bool
	preload  float64 // share of the generated edges loaded before serving
	// readRate is the open-loop offered read rate of the latency block,
	// in requests per second: about half the closed-loop capacity the
	// benchmark measured on its parent commit (see README.md).
	readRate float64
	// hotPool > 0 draws sources Zipf(s=1) from that many vertices;
	// 0 draws them uniformly over every loaded vertex.
	hotPool int
	// staleShare is the share of reads sent with stale=ok.
	staleShare float64
	// writeEvery is the open-loop insert interval of the latency block.
	writeEvery time.Duration
	// deleteEvery > 0 makes every deleteEvery-th write a deletion.
	deleteEvery int
	// besideRate is the open-loop read rate beside the ingest writer.
	besideRate float64
	// writeCost is the nominal time of one ingest write on the parent
	// commit; the ingest block sends ingestShare of the round's time
	// divided by it (rounded to whole deleteEvery cycles), so the block
	// does a fixed amount of work whatever the program's speed.
	writeCost time.Duration
	// latencyShare, capacityShare and ingestShare split --seconds.
	latencyShare, capacityShare, ingestShare float64
}

// rounds is how many times a run repeats its round; warmupShare is the
// share of the measured time spent warming up before the first round.
const (
	rounds      = 3
	warmupShare = 0.15
)

const (
	logN        = 16
	avgDegree   = 16
	maxWeight   = 64
	batchEdges  = 1024
	deleteEdges = 64 // edges per deletion, drawn from earlier inserts
	hotZipfS    = 1.0
)

var workloads = []workload{
	{
		name:         "query-uniform",
		preload:      0.9,
		readRate:     80,
		writeEvery:   2 * time.Second,
		writeCost:    75 * time.Millisecond,
		latencyShare: 0.45, capacityShare: 0.3, ingestShare: 0.25,
	},
	{
		name:         "ingest-directed",
		directed:     true,
		preload:      0.5,
		readRate:     80,
		deleteEvery:  10,
		besideRate:   2,
		writeCost:    350 * time.Millisecond,
		latencyShare: 0.3, capacityShare: 0.2, ingestShare: 0.5,
	},
	{
		name:         "hot-reads",
		preload:      0.9,
		readRate:     120,
		hotPool:      256,
		staleShare:   0.8,
		writeEvery:   time.Second,
		writeCost:    75 * time.Millisecond,
		latencyShare: 0.45, capacityShare: 0.3, ingestShare: 0.25,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readOp is one GET /v1/query.
type readOp struct {
	problem string
	source  graph.VertexID
	stale   bool
}

func (r readOp) path() string {
	p := fmt.Sprintf("/v1/query?problem=%s&source=%d", r.problem, r.source)
	if r.stale {
		p += "&stale=ok"
	}
	return p
}

// writeOp is one POST /v1/batch (del=false) or /v1/delete (del=true).
type writeOp struct {
	del   bool
	edges []graph.Edge
}

func (w writeOp) path() string {
	if w.del {
		return "/v1/delete"
	}
	return "/v1/batch"
}

// inputs are the seeded inputs of one run: the preloaded graph, every
// read sequence and the whole write sequence.
type inputs struct {
	w        workload
	seed     uint64
	total    time.Duration // measured time the sequences are sized for
	n        int           // vertex count of the preloaded edge list
	directed bool
	initial  []graph.Edge
	// reads holds each block's read sequence for all rounds; round r
	// uses reads[ph][r*perRound[ph] : (r+1)*perRound[ph]]. Open-loop
	// blocks send their i-th read at i/rate seconds into the block; the
	// closed-loop readers of the capacity block consume theirs in order.
	reads    map[phase][]readOp
	perRound map[phase]int
	// writes is the write stream in the order the single writer sends
	// it, through all rounds.
	writes []writeOp
	// openWrites and ingestWrites are the writes per round of the
	// latency block and of the ingest block.
	openWrites, ingestWrites int
}

// roundReads is round r's slice of a block's read sequence.
func (in *inputs) roundReads(ph phase, r int) []readOp {
	k := in.perRound[ph]
	return in.reads[ph][r*k : (r+1)*k]
}

// blockDurations splits one round's share of the measured time between
// its blocks, after the warm-up's share.
func (w workload) blockDurations(total time.Duration) (lat, capa, ing time.Duration) {
	f := func(s float64) time.Duration { return time.Duration(float64(total) * (1 - warmupShare) * s / rounds) }
	return f(w.latencyShare), f(w.capacityShare), f(w.ingestShare)
}

func warmupDuration(total time.Duration) time.Duration {
	return time.Duration(float64(total) * warmupShare)
}

// makeInputs derives every input of a run from the workload and seed.
// It is deterministic: the same (workload, seed, seconds) gives the same
// graph, read sequences and write sequence.
func makeInputs(w workload, seed uint64, total time.Duration) *inputs {
	cfg := gen.Config{
		Name: w.name, LogN: logN, AvgDegree: avgDegree, Directed: w.directed,
		MaxWeight: maxWeight, Seed: xrand.Hash64(seed ^ 0x7419_b3c5),
	}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, w.directed, w.preload, batchEdges, seed)
	in := &inputs{w: w, seed: seed, total: total, directed: w.directed, initial: stream.Initial}
	for _, e := range stream.Initial {
		if int(e.Src) >= in.n {
			in.n = int(e.Src) + 1
		}
		if int(e.Dst) >= in.n {
			in.n = int(e.Dst) + 1
		}
	}
	lat, capDur, ing := w.blockDurations(total)
	if w.writeEvery > 0 {
		in.openWrites = int(lat / w.writeEvery)
	}
	in.ingestWrites = max(1, int(ing/w.writeCost))
	if w.deleteEvery > 0 {
		in.ingestWrites = max(1, in.ingestWrites/w.deleteEvery) * w.deleteEvery
	}
	rng := xrand.New(seed*0x9E3779B97F4A7C15 + 1)
	pick := sourcePicker(w, in.n, in.initial, rng)
	nextRead := func() readOp {
		return readOp{
			problem: problems[rng.Intn(len(problems))],
			source:  pick(),
			stale:   w.staleShare > 0 && rng.Float64() < w.staleShare,
		}
	}
	// The closed-loop readers never run out: even a cache-hit storm
	// stays far below 4000 completions per second. The beside reads are
	// spread over the ingest block's nominal length.
	in.perRound = map[phase]int{
		phaseLatency:  int(w.readRate * lat.Seconds()),
		phaseCapacity: int(4000*capDur.Seconds()) + 64,
		phaseIngest:   int(w.besideRate * (time.Duration(in.ingestWrites) * w.writeCost).Seconds()),
	}
	in.reads = map[phase][]readOp{}
	for i := 0; i < int(4000*warmupDuration(total).Seconds()); i++ {
		in.reads[phaseWarmup] = append(in.reads[phaseWarmup], nextRead())
	}
	for r := 0; r < rounds; r++ {
		for _, ph := range []phase{phaseLatency, phaseCapacity, phaseIngest} {
			for i := 0; i < in.perRound[ph]; i++ {
				in.reads[ph] = append(in.reads[ph], nextRead())
			}
		}
	}
	in.writes = makeWrites(stream.Batches, w.deleteEvery, rng)
	return in
}

// sourcePicker returns the read-source distribution of w: uniform over
// [0, n), or Zipf(s=1) over a seeded pool of hotPool distinct vertices
// that have edges in the preloaded graph. (A hot source is a vertex
// people ask about; an isolated one answers "unreachable" everywhere,
// whose response is three times larger, so letting the seed decide how
// many isolated vertices rank high would make the figures depend on the
// seed more than on the program.)
func sourcePicker(w workload, n int, initial []graph.Edge, rng *xrand.RNG) func() graph.VertexID {
	if w.hotPool == 0 {
		return func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	}
	hasEdge := make([]bool, n)
	for _, e := range initial {
		hasEdge[e.Src], hasEdge[e.Dst] = true, true
	}
	var pool []int
	for _, v := range rng.Perm(n) {
		if hasEdge[v] && len(pool) < w.hotPool {
			pool = append(pool, v)
		}
	}
	cum := make([]float64, len(pool))
	total := 0.0
	for k := range pool {
		total += 1 / math.Pow(float64(k+1), hotZipfS)
		cum[k] = total
	}
	return func() graph.VertexID {
		x := rng.Float64() * total
		k := sort.SearchFloat64s(cum, x)
		if k >= len(pool) {
			k = len(pool) - 1
		}
		return graph.VertexID(pool[k])
	}
}

// makeWrites lays out the write stream: the stream's insert batches in
// order, with every deleteEvery-th write (if deleteEvery > 0) a deletion
// of deleteEdges edges drawn without replacement from the inserts before
// it.
func makeWrites(batches [][]graph.Edge, deleteEvery int, rng *xrand.RNG) []writeOp {
	var (
		out      []writeOp
		inserted []graph.Edge
	)
	for b := 0; b < len(batches); {
		if deleteEvery > 0 && (len(out)+1)%deleteEvery == 0 && len(inserted) >= deleteEdges {
			del := make([]graph.Edge, deleteEdges)
			for k := range del {
				j := rng.Intn(len(inserted))
				del[k] = inserted[j]
				inserted[j] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
			out = append(out, writeOp{del: true, edges: del})
			continue
		}
		out = append(out, writeOp{edges: batches[b]})
		inserted = append(inserted, batches[b]...)
		b++
	}
	return out
}
