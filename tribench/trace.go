package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call in the traced replay. Spans of one operation
// share req; parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string    `json:"name"`
	Req    uint64    `json:"req"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. The in-process
// server's middleware records from handler goroutines, hence the lock.
// A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) begin(name string, req uint64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for k, v := range ivs {
			if k == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
				continue
			}
			if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		out[i] = s.dur() - covered
	}
	return out
}

// spanStats summarizes spans by name.
type spanStats map[string][]float64

// durations collects span durations (ms) under their names and under
// each dot-prefix that names a per-problem family, so
// "engine.push.SSSP" also counts toward "engine.push".
func durations(spans []span) spanStats {
	st := spanStats{}
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		d := ms(s.dur())
		st[s.Name] = append(st[s.Name], d)
		for _, p := range problems {
			if base, ok := strings.CutSuffix(s.Name, "."+p); ok {
				st[base] = append(st[base], d)
			}
		}
	}
	return st
}

func (st spanStats) median(name string) float64 { return median(st[name]) }

// writeSpans writes the recorded spans as JSON at the end of the run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
