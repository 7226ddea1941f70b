package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
)

// Subscriptions treat a user query as a continuously maintained
// materialized answer: SubscribeCtx registers (problem, source), answers
// it once (the snapshot frame), and from then on every
// ApplyBatch/ApplyDeletions advance refreshes all subscribed sources and
// pushes only the changed (vertex, value) pairs as a delta frame.
//
// The refresh runs inside the writer's exclusive stMu window, right
// after standing maintenance: the standing arrays and the new snapshot
// describe the same version there, so each subscribed source gets the
// same Δ-initialized evaluation a fresh QueryCtx would — batched width-K
// (≤64 sources per fused engine run) instead of per-source.
//
// Delivery is lossy-but-consistent: a subscriber's baseline (the values
// its client last received) advances only when a frame is actually
// delivered, and every delta frame is diffed against that baseline. A
// slow client whose channel is full simply misses intermediate versions;
// the next delivered frame is cumulative from the client's actual state,
// so applying frames in order always reproduces the exact answer at the
// frame's version — there is no resync protocol because none is needed.

// VertexDelta is one changed entry in a delta frame.
type VertexDelta struct {
	Vertex graph.VertexID `json:"v"`
	Value  uint64         `json:"x"`
}

// ResultFrame is one push to a subscriber. Kind "snapshot" carries the
// full value array (the first frame); kind "delta" carries only the
// entries that differ from the previous delivered frame. Values beyond
// the baseline's length (vertices added by a batch) are always included
// in Changed, so a client extends its array without knowing the
// problem's identity value.
type ResultFrame struct {
	Kind    string         `json:"kind"` // "snapshot" | "delta"
	Problem string         `json:"problem"`
	Source  graph.VertexID `json:"src"`
	Version uint64         `json:"version"`
	// Snapshot payload.
	Values []uint64 `json:"values,omitempty"`
	Counts []uint64 `json:"counts,omitempty"` // SSNSP shortest-path counts
	// Delta payload. A delta frame with no changes still announces the
	// version advance.
	Changed       []VertexDelta `json:"changed,omitempty"`
	ChangedCounts []VertexDelta `json:"changed_counts,omitempty"`
}

// Subscription is one registered (problem, source) push stream. Frames
// are delivered on a buffered channel; the channel closes when
// Unsubscribe is called. All mutable state is owned by the System
// (guarded by subMu) — callers only read the identity fields and drain
// Frames().
type Subscription struct {
	id      uint64
	Problem string
	Source  graph.VertexID

	frames chan ResultFrame

	// Baseline: the values the client last received (nil until the
	// snapshot frame is delivered). Guarded by System.subMu. The slices
	// are never mutated in place — refresh replaces them wholesale — so
	// sharing them with delivered frames is safe.
	baseVals    []uint64
	baseCounts  []uint64
	baseVersion uint64
	ready       bool
	closed      bool
	dropped     uint64
}

// ID returns the subscription's registry identifier.
func (sub *Subscription) ID() uint64 { return sub.id }

// Frames returns the receive side of the push stream. The channel is
// closed by Unsubscribe.
func (sub *Subscription) Frames() <-chan ResultFrame { return sub.frames }

// Version returns the version of the last delivered frame.
func (sub *Subscription) Version() uint64 { return sub.baseVersion }

// subRefresher is implemented by handlers whose problems support
// subscriptions: given the post-maintenance view and the subscribed
// sources, recompute each source's answer. Called by the writer inside
// the exclusive stMu window, so implementations read standing state
// without further locking. Returned slices must be freshly allocated (or
// immutable-by-convention shared copies): they become subscriber
// baselines and frame payloads.
type subRefresher interface {
	refreshSubscribed(view engine.View, sources []graph.VertexID) (vals, counts [][]uint64, version uint64)
}

// DefaultSubscriptionBuffer is the frame-channel capacity
// SubscribeCtx(buffer<=0) selects. One slot would livelock a client that
// polls between batches; a handful absorbs bursts without letting a dead
// client pin arbitrarily many frames.
const DefaultSubscriptionBuffer = 8

// SubscribeCtx registers a subscription for (problem, u), computes its
// initial answer (the engine honors ctx like any user query), and
// delivers it as the snapshot frame. The caller must eventually call
// Unsubscribe. Problems whose handlers cannot batch-refresh (Radii)
// return an ErrSubscribeUnsupported-wrapping error.
func (s *System) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*Subscription, error) {
	h, err := s.lookup(problem)
	if err != nil {
		return nil, err
	}
	if _, ok := h.(subRefresher); !ok {
		return nil, fmt.Errorf("core: problem %q does not support subscriptions: %w", problem, ErrSubscribeUnsupported)
	}
	if err := s.checkSource(u); err != nil {
		return nil, err
	}
	if buffer <= 0 {
		buffer = DefaultSubscriptionBuffer
	}
	sub := &Subscription{Problem: problem, Source: u, frames: make(chan ResultFrame, buffer)}

	// Register before computing the baseline. A batch that lands in
	// between sees ready=false and skips this subscription; the baseline
	// then just reports an older version, and the first post-subscribe
	// refresh diffs against it cumulatively — exact at every step.
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[uint64]*Subscription)
	}
	s.subSeq++
	sub.id = s.subSeq
	s.subs[sub.id] = sub
	s.subMu.Unlock()

	res, err := h.queryDelta(ctx, s, u)
	if err != nil {
		s.Unsubscribe(sub)
		return nil, err
	}

	s.subMu.Lock()
	if sub.closed {
		s.subMu.Unlock()
		return nil, fmt.Errorf("core: subscription closed during setup: %w", ErrCanceled)
	}
	sub.baseVals = res.Values
	sub.baseCounts = res.Counts
	sub.baseVersion = res.Version
	sub.ready = true
	select {
	case sub.frames <- ResultFrame{
		Kind: "snapshot", Problem: problem, Source: u, Version: res.Version,
		Values: append([]uint64(nil), res.Values...),
		Counts: append([]uint64(nil), res.Counts...),
	}:
	default:
		// Unreachable: the channel is fresh with buffer >= 1 and no
		// refresh sends before ready is set (both under subMu).
	}
	s.subMu.Unlock()
	return sub, nil
}

// Subscribe is SubscribeCtx with the background context.
func (s *System) Subscribe(problem string, u graph.VertexID, buffer int) (*Subscription, error) {
	return s.SubscribeCtx(context.Background(), problem, u, buffer)
}

// Unsubscribe deregisters sub and closes its frame channel. Idempotent.
func (s *System) Unsubscribe(sub *Subscription) {
	s.subMu.Lock()
	if !sub.closed {
		sub.closed = true
		delete(s.subs, sub.id)
		close(sub.frames)
	}
	s.subMu.Unlock()
}

// Subscribers returns the number of registered subscriptions.
func (s *System) Subscribers() int {
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	return n
}

// subRefreshReport summarizes one per-batch subscription fan-out.
type subRefreshReport struct {
	subscribers int
	sent        int
	dropped     int
	elapsed     time.Duration
}

// refreshSubscriptions recomputes every ready subscription's answer on
// the post-maintenance view and pushes frames. Writer-side only: the
// caller holds stMu exclusively (lock order stMu → subMu), so the
// standing arrays are quiescent and handlers refresh without locking.
func (s *System) refreshSubscriptions(view engine.View) subRefreshReport {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	var rep subRefreshReport
	rep.subscribers = len(s.subs)
	if rep.subscribers == 0 {
		return rep
	}
	start := time.Now()
	// Group ready subscriptions by problem, ordered by id so the fused
	// refresh batches are deterministic for a given registry state.
	byProblem := make(map[string][]*Subscription)
	for _, sub := range s.subs {
		if sub.ready {
			byProblem[sub.Problem] = append(byProblem[sub.Problem], sub)
		}
	}
	for _, name := range s.order {
		list := byProblem[name]
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(a, b int) bool { return list[a].id < list[b].id })
		r := s.handlers[name].(subRefresher)
		sources := make([]graph.VertexID, len(list))
		for i, sub := range list {
			sources[i] = sub.Source
		}
		vals, counts, version := r.refreshSubscribed(view, sources)
		for i, sub := range list {
			frame := ResultFrame{
				Kind: "delta", Problem: name, Source: sub.Source, Version: version,
				Changed: diffValues(sub.baseVals, vals[i]),
			}
			if counts != nil {
				frame.ChangedCounts = diffValues(sub.baseCounts, counts[i])
			}
			select {
			case sub.frames <- frame:
				sub.baseVals = vals[i]
				if counts != nil {
					sub.baseCounts = counts[i]
				}
				sub.baseVersion = version
				rep.sent++
			default:
				// Full channel: the client missed this version. Keep the
				// baseline where the client actually is — the next delivered
				// delta is cumulative from there.
				sub.dropped++
				rep.dropped++
			}
		}
	}
	rep.elapsed = time.Since(start)
	return rep
}

// diffValues lists the entries of next that differ from base. Entries
// past base's length (new vertices) are always included.
func diffValues(base, next []uint64) []VertexDelta {
	var out []VertexDelta
	n := len(base)
	if n > len(next) {
		n = len(next)
	}
	for i := 0; i < n; i++ {
		if base[i] != next[i] {
			out = append(out, VertexDelta{Vertex: graph.VertexID(i), Value: next[i]})
		}
	}
	for i := n; i < len(next); i++ {
		out = append(out, VertexDelta{Vertex: graph.VertexID(i), Value: next[i]})
	}
	return out
}

// ---------------------------------------------------------------------
// Handler refresh implementations.

// refreshSubscribed for the six simple triangle problems (and custom
// problems): the fused width-K user-query batch of queryMulti, run in
// chunks of ≤64 slots, minus the pinning — the writer already holds the
// exclusive lock and hands in the post-maintenance view.
func (h *simpleHandler) refreshSubscribed(view engine.View, sources []graph.VertexID) ([][]uint64, [][]uint64, uint64) {
	p := h.mgr.Problem
	n := view.NumVertices()
	out := make([][]uint64, len(sources))
	for base := 0; base < len(sources); base += 64 {
		end := base + 64
		if end > len(sources) {
			end = len(sources)
		}
		chunk := sources[base:end]
		w := len(chunk)
		st := engine.NewState(p, n, w)
		for j, u := range chunk {
			arr, stride, off := st.StrideView(j)
			h.mgr.DeltaInto(arr, stride, off, n, u)
		}
		seeds, masks := sourceSeeds(chunk)
		st.RunPush(view, seeds, masks)
		for j := range chunk {
			// Column always copies, so each subscriber gets its own slice.
			out[base+j] = st.Column(j)
		}
	}
	return out, nil, viewVersion(view)
}

// refreshSubscribed for SSNSP: per-source Δ-initialized level round plus
// exact recount (counting is not batchable across sources — each count
// round is driven by its own level array).
func (h *ssnspHandler) refreshSubscribed(view engine.View, sources []graph.VertexID) ([][]uint64, [][]uint64, uint64) {
	vals := make([][]uint64, len(sources))
	counts := make([][]uint64, len(sources))
	for i, u := range sources {
		init, _, _ := h.mgr.DeltaFor(u)
		res := props.RunSSNSPDelta(view, u, init)
		vals[i] = res.Levels
		counts[i] = res.Counts
	}
	return vals, counts, viewVersion(view)
}

// refreshSubscribed for PageRank: every subscriber shares one copy of
// the freshly converged ranks (the answer is source-independent), so the
// fan-out cost is one O(N) copy per batch regardless of subscriber
// count. The version is the one the ranks converged at.
func (h *pageRankHandler) refreshSubscribed(_ engine.View, sources []graph.VertexID) ([][]uint64, [][]uint64, uint64) {
	shared := make([]uint64, len(h.ranks))
	for i, r := range h.ranks {
		shared[i] = floatBits(r)
	}
	vals := make([][]uint64, len(sources))
	for i := range vals {
		vals[i] = shared
	}
	return vals, nil, h.version
}

// refreshSubscribed for CC: like PageRank, one shared copy of the
// converged labels.
func (h *ccHandler) refreshSubscribed(_ engine.View, sources []graph.VertexID) ([][]uint64, [][]uint64, uint64) {
	shared := append([]uint64(nil), h.st.Values...)
	vals := make([][]uint64, len(sources))
	for i := range vals {
		vals[i] = shared
	}
	return vals, nil, h.version
}
