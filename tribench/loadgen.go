package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opRead opKind = iota
	opInsert
	opDelete
)

type phase int

const (
	phaseLatency phase = iota
	phaseCapacity
	phaseIngest
	phaseWarmup
)

func (p phase) String() string {
	return [...]string{"latency", "capacity", "ingest", "warmup"}[p]
}

// result is one completed (or failed) request.
type result struct {
	kind  opKind
	phase phase
	round int
	index int // read index within its phase's sequence, or write index
	// due is when an open-loop request was scheduled (zero for closed
	// loop); late is how far behind due the generator dispatched it.
	due, sent, done time.Time
	late            time.Duration
	status          int
	err             error
	version         uint64
	cacheHit        bool
	body            []byte // kept for sampled reads and for writes
}

func (r *result) ok() bool { return r.err == nil && r.status/100 == 2 }

// latency is measured from the due time for open-loop requests, so a
// stall also charges the requests that queued behind it.
func (r *result) latency() time.Duration {
	if !r.due.IsZero() {
		return r.done.Sub(r.due)
	}
	return r.done.Sub(r.sent)
}

// ms is the latency in milliseconds; a failed request counts as
// infinitely late, so it misses every latency limit.
func (r *result) ms() float64 {
	if !r.ok() {
		return inf
	}
	return ms(r.latency())
}

// client is the generator's HTTP side: one transport whose connection
// pool is capped at conns, so the process never holds more than conns
// connections to the server.
type client struct {
	base  string
	http  *http.Client
	dials atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.http = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// read sends one query. Only a kept (sampled) body is buffered; the
// rest is drained, so the generator spends little CPU per response.
func (c *client) read(ctx context.Context, op readOp, keep bool, r *result) {
	r.kind = opRead
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+op.path(), nil)
	if err != nil {
		r.err = err
		return
	}
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if keep {
		r.body, r.err = io.ReadAll(resp.Body)
	} else {
		_, r.err = io.Copy(io.Discard, resp.Body)
	}
	r.version, _ = strconv.ParseUint(resp.Header.Get("X-Tripoline-Version"), 10, 64)
	r.cacheHit = resp.Header.Get("X-Tripoline-Cache") == "hit"
}

// write sends one batch or deletion and decodes the reported version.
func (c *client) write(ctx context.Context, w writeOp, body []byte, r *result) {
	r.kind = opInsert
	if w.del {
		r.kind = opDelete
	}
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+w.path(), bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.body, r.err = io.ReadAll(resp.Body)
	if r.ok() {
		var br struct {
			Applied int    `json:"applied"`
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(r.body, &br); err != nil {
			r.err = fmt.Errorf("decoding write response: %w", err)
			return
		}
		if br.Applied != len(w.edges) {
			r.err = fmt.Errorf("write applied %d edges, sent %d", br.Applied, len(w.edges))
		}
		r.version = br.Version
	}
}

type edgeJSON struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	W   uint32 `json:"w"`
}

// encodeWrite renders a write's request body.
func encodeWrite(w writeOp) []byte {
	req := struct {
		Edges []edgeJSON `json:"edges"`
	}{Edges: make([]edgeJSON, len(w.edges))}
	for i, e := range w.edges {
		req.Edges[i] = edgeJSON{Src: uint32(e.Src), Dst: uint32(e.Dst), W: uint32(e.W)}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of integers always marshal
	}
	return b
}

// writer sends the write stream strictly in order, one request at a
// time, so every write response must report the next version.
type writer struct {
	c      *client
	writes []writeOp
	bodies [][]byte
	next   int
}

func newWriter(c *client, writes []writeOp) *writer {
	w := &writer{c: c, writes: writes, bodies: make([][]byte, len(writes))}
	for i, op := range writes {
		w.bodies[i] = encodeWrite(op)
	}
	return w
}

func (w *writer) send(ctx context.Context, ph phase, due time.Time) result {
	r := result{phase: ph, index: w.next, due: due}
	w.c.write(ctx, w.writes[w.next], w.bodies[w.next], &r)
	w.next++
	return r
}

// closedLoop sends n writes back to back (fewer if the stream runs out).
func (w *writer) closedLoop(ctx context.Context, ph phase, n int) []result {
	var out []result
	for i := 0; i < n && w.next < len(w.writes) && ctx.Err() == nil; i++ {
		out = append(out, w.send(ctx, ph, time.Time{}))
	}
	return out
}

// scheduled is one open-loop operation: the read at index, or (write)
// the writer's next write.
type scheduled struct {
	at    time.Duration // offset from the phase start
	read  readOp
	index int
	write bool
}

// openLoop dispatches ops at their due times from one goroutine and
// runs them on `workers` goroutines, each holding at most one request
// in flight. Reads sampled by keep have their bodies buffered. Writes go
// through w one at a time in schedule order (the writer lane is a lock,
// not a connection: it only serializes the rare open-loop writes).
// Dispatch ends early when stop (if not nil) closes.
func openLoop(ctx context.Context, c *client, w *writer, ph phase, ops []scheduled, workers int, keep func(phase, int) bool, stop <-chan struct{}) []result {
	type job struct {
		op       scheduled
		due      time.Time
		dispatch time.Time
	}
	jobs := make(chan job, len(ops)) // sized to the schedule: dispatch never blocks
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		out     []result
		writeMu sync.Mutex
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for j := range jobs {
				var r result
				if j.op.write {
					writeMu.Lock()
					r = w.send(ctx, ph, j.due)
					writeMu.Unlock()
				} else {
					r = result{phase: ph, index: j.op.index, due: j.due}
					c.read(ctx, j.op.read, keep(ph, j.op.index), &r)
				}
				r.late = j.dispatch.Sub(j.due)
				mine = append(mine, r)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for _, op := range ops {
		due := start.Add(op.at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-stop:
				break dispatch
			case <-ctx.Done():
				break dispatch
			}
		}
		jobs <- job{op: op, due: due, dispatch: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedReaders runs `workers` closed-loop readers over seq until end:
// each sends its next read as soon as the previous one completes. base
// is the index of seq[0] in its block's whole sequence. It returns the
// results and the wall time until the last reader stopped.
func closedReaders(ctx context.Context, c *client, ph phase, seq []readOp, base, workers int, end time.Time, keep func(phase, int) bool) ([]result, time.Duration) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  []result
	)
	start := time.Now()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for time.Now().Before(end) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					break
				}
				r := result{phase: ph, index: base + i}
				c.read(ctx, seq[i], keep(ph, base+i), &r)
				mine = append(mine, r)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
