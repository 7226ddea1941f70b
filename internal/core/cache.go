package core

import (
	"container/list"
	"sync"

	"tripoline/internal/graph"
)

// Δ-result cache: answers to user queries, keyed by (problem, source)
// and stamped with the snapshot version they were computed at. The cache
// leans on two properties of the system:
//
//   - a QueryResult is an exact fixpoint for the version it reports, and
//     stays exact for that version forever (snapshots are immutable), so
//     a cached entry is never *wrong* — it can only be *stale*, and
//     staleness is a serving policy (stale=ok / min_version), not a
//     correctness question;
//   - most vertex values survive an update batch unchanged (the
//     stable-vertex-values observation), so when a batch's changed-source
//     list is empty the graph content is identical and every cached
//     answer is re-stamped to the new version for free.
//
// Entries pin the flat mirror of the version they were computed at
// (Flat.Retain), keeping the mirror's slabs out of the recycler while
// the entry is current — a cached answer can then be revalidated or
// extended against exactly the CSR it came from without a rebuild. Pins
// are dropped as soon as the system advances past the entry's version
// (the writer retires the mirror then anyway, so holding on would block
// slab recycling for no benefit); the cached values themselves are
// copies and outlive the mirror.
//
// All operations are O(1) under one mutex: the serving layer consults
// the cache *before* its admission gate, so a lookup must never be the
// contended path.

// DefaultCacheEntries is the capacity EnableResultCache(0) selects.
const DefaultCacheEntries = 1024

// CacheMetrics is a point-in-time snapshot of cache activity.
type CacheMetrics struct {
	Entries     int    // entries currently resident
	Capacity    int    // configured LRU capacity
	Hits        uint64 // lookups served (fresh or stale)
	StaleServed uint64 // of which served a non-current version
	Misses      uint64 // lookups that found nothing servable
	Evictions   uint64 // entries dropped by LRU pressure
	Restamps    uint64 // entries re-stamped by empty-changed batches
	Pinned      int    // entries currently holding a mirror pin
}

type cacheKey struct {
	problem string
	source  graph.VertexID
}

type cacheEntry struct {
	key cacheKey
	// res holds the cached answer. Values/Counts are copied in by put and
	// never written again: CachedQuery copies them out, ViewCachedQuery
	// lends them read-only, so callers can never mutate an entry.
	res QueryResult
	// batchStamp is the cache's mutation counter when the entry was last
	// computed or re-stamped; batches-since = cache.batches - batchStamp.
	batchStamp uint64
	// pin releases the Retain on the mirror of res.Version (nil when the
	// mirror was unavailable or the pin already dropped).
	pin func()
}

// resultCache is the LRU Δ-result cache. One per System, enabled by
// EnableResultCache.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
	// pinned lists the entries holding a mirror pin; every pin is for the
	// current version, so advancing releases the whole slice at once.
	pinned []*cacheEntry
	// batches counts mutations that actually changed the graph (non-empty
	// changed-source list); it is the denominator of entry staleness.
	batches uint64

	hits, staleServed, misses, evictions, restamps uint64
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &resultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

// EnableResultCache turns on the Δ-result cache with the given LRU
// capacity (entries <= 0 selects DefaultCacheEntries). Every successful
// QueryCtx answer is cached; CachedQuery serves them under the
// stale=ok / min_version policy. Enabling is idempotent for a given
// capacity and must happen before serving starts (it is not synchronized
// against concurrent queries).
func (s *System) EnableResultCache(entries int) {
	s.cache = newResultCache(entries)
}

// ResultCacheMetrics reports cache activity (zero value when the cache
// is disabled).
func (s *System) ResultCacheMetrics() CacheMetrics {
	if s.cache == nil {
		return CacheMetrics{}
	}
	return s.cache.metrics()
}

func (c *resultCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Entries:     c.ll.Len(),
		Capacity:    c.cap,
		Hits:        c.hits,
		StaleServed: c.staleServed,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Restamps:    c.restamps,
		Pinned:      len(c.pinned),
	}
}

// cacheStore copies res into the cache, replacing any older entry for
// the same (problem, source). Called by QueryCtx after a successful
// Δ-based evaluation; the caller keeps ownership of res.
func (s *System) cacheStore(res *QueryResult) {
	c := s.cache
	if c == nil {
		return
	}
	// Pin the mirror of the result's version while the entry is current.
	// Acquire-then-match keeps this race-free: if a batch already advanced
	// past res.Version the versions differ and no pin is taken (the entry
	// is born stale, which the policy handles).
	var pin func()
	if snap := s.G.Acquire(); snap.Version() == res.Version {
		if f := snap.BuiltFlat(); f != nil && f.Retain() {
			pin = f.Release
		}
	}
	c.put(res, pin)
}

func (c *resultCache) put(res *QueryResult, pin func()) {
	key := cacheKey{problem: res.Problem, source: res.Source}
	e := &cacheEntry{key: key, batchStamp: 0, pin: pin}
	e.res = QueryResult{
		Problem:     res.Problem,
		Source:      res.Source,
		Values:      append([]uint64(nil), res.Values...),
		Width:       res.Width,
		Counts:      append([]uint64(nil), res.Counts...),
		Radius:      res.Radius,
		Incremental: res.Incremental,
		Version:     res.Version,
		versionSet:  true,
	}
	c.mu.Lock()
	e.batchStamp = c.batches
	if old, ok := c.entries[key]; ok {
		oe := old.Value.(*cacheEntry)
		c.dropPin(oe)
		old.Value = e
		c.ll.MoveToFront(old)
	} else {
		c.entries[key] = c.ll.PushFront(e)
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			be := back.Value.(*cacheEntry)
			c.dropPin(be)
			c.ll.Remove(back)
			delete(c.entries, be.key)
			c.evictions++
		}
	}
	if pin != nil {
		c.pinned = append(c.pinned, e)
	}
	c.mu.Unlock()
}

// dropPin releases e's mirror pin and removes it from the pinned list.
// Caller holds c.mu.
func (c *resultCache) dropPin(e *cacheEntry) {
	if e.pin == nil {
		return
	}
	e.pin()
	e.pin = nil
	for i, p := range c.pinned {
		if p == e {
			c.pinned = append(c.pinned[:i], c.pinned[i+1:]...)
			break
		}
	}
}

// CachedQuery serves a cached answer for (problem, u) under the serving
// policy: the entry must satisfy entry.Version >= minVersion, and unless
// staleOK it must be current (entry.Version equal to the latest snapshot
// version). On a hit it returns a fresh copy of the result — exact for
// the version it reports — plus the number of graph-changing batches
// applied since that version (the Age analogue). ok=false on a miss or
// when the cache is disabled.
func (s *System) CachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool) (res *QueryResult, staleBatches uint64, ok bool) {
	ok = s.ViewCachedQuery(problem, u, minVersion, staleOK, func(r *QueryResult, stale uint64) {
		res, staleBatches = copyResult(r), stale
	})
	return res, staleBatches, ok
}

// CachedQueryAt serves a cached answer whose version matches exactly —
// the /v1/queryat fast path. Historical answers never go stale at their
// own version, so no policy beyond the exact match applies.
func (s *System) CachedQueryAt(problem string, u graph.VertexID, version uint64) (res *QueryResult, ok bool) {
	ok = s.ViewCachedQueryAt(problem, u, version, func(r *QueryResult) { res = copyResult(r) })
	return res, ok
}

// ViewCachedQuery is CachedQuery without the copy: on a hit it calls fn
// with a read-only view of the cached result and the batches-since
// count, outside the cache lock, and reports true. The view's Values and
// Counts are the entry's own slices — never mutated after the entry is
// stored, so reading them needs no lock — and fn must neither modify
// them nor keep them past its return. This is how the serving layer
// encodes a hit with no O(N) copy.
func (s *System) ViewCachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool, fn func(res *QueryResult, staleBatches uint64)) bool {
	if s.cache == nil {
		return false
	}
	return s.cache.view(problem, u, minVersion, staleOK, s.G.Acquire().Version(), fn)
}

// ViewCachedQueryAt is CachedQueryAt without the copy, under
// ViewCachedQuery's contract.
func (s *System) ViewCachedQueryAt(problem string, u graph.VertexID, version uint64, fn func(res *QueryResult)) bool {
	if s.cache == nil {
		return false
	}
	return s.cache.view(problem, u, version, false, version, func(r *QueryResult, _ uint64) { fn(r) })
}

// view looks up (problem, u) and, when the entry is servable (version at
// least minVersion and, unless staleOK, equal to cur), counts the hit —
// a stale one when the version is not cur — and hands fn a shallow copy
// of the entry's result taken under the lock (cacheAdvance re-stamps
// Version in place; the slices are never written) and its batches-since
// count. fn runs after unlocking, so the caller's O(N) work, a copy or
// an encode, never holds c.mu.
func (c *resultCache) view(problem string, u graph.VertexID, minVersion uint64, staleOK bool, cur uint64, fn func(*QueryResult, uint64)) bool {
	c.mu.Lock()
	el, found := c.entries[cacheKey{problem: problem, source: u}]
	if !found {
		c.misses++
		c.mu.Unlock()
		return false
	}
	e := el.Value.(*cacheEntry)
	if e.res.Version < minVersion || (!staleOK && e.res.Version != cur) {
		c.misses++
		c.mu.Unlock()
		return false
	}
	c.ll.MoveToFront(el)
	c.hits++
	if e.res.Version != cur {
		c.staleServed++
	}
	res, stale := e.res, c.batches-e.batchStamp
	c.mu.Unlock()
	fn(&res, stale)
	return true
}

// copyResult returns a caller-owned copy of a cached result.
func copyResult(r *QueryResult) *QueryResult {
	out := *r
	out.Values = append([]uint64(nil), r.Values...)
	out.Counts = append([]uint64(nil), r.Counts...)
	return &out
}

// cacheAdvance tells the cache one mutation superseded prevVersion with
// newVersion under the given changed-source list. An empty changed list
// means newVersion's graph content is identical to prevVersion's, so
// entries that were exact at prevVersion are equally exact at newVersion
// and are re-stamped for free (the stable-vertex-values payoff in its
// extreme form) — entries already stale before prevVersion describe an
// older graph and must keep their old stamp. A non-empty changed list
// advances the mutation counter, aging every entry. Mirror pins are
// dropped either way — the writer retires the previous version's mirror
// on advance, and the pins were what kept its slabs from recycling.
func (s *System) cacheAdvance(changed []graph.VertexID, prevVersion, newVersion uint64) {
	c := s.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, e := range c.pinned {
		e.pin()
		e.pin = nil
	}
	c.pinned = c.pinned[:0]
	if len(changed) == 0 {
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			if e.res.Version == prevVersion && prevVersion < newVersion {
				e.res.Version = newVersion
				c.restamps++
			}
		}
	} else {
		c.batches++
	}
	c.mu.Unlock()
}
