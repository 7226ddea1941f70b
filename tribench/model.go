package main

import (
	"sort"

	"tripoline/internal/graph"
)

// model is the benchmark's own adjacency model of the served graph,
// independent of the program's graph code: per vertex, the out-arcs
// sorted by destination. It follows the server's documented update
// semantics — an arc already present keeps its first weight, undirected
// edges store both arcs, deletions remove both arcs — so the graph at
// any version can be rebuilt from the initial edges and the write log.
type model struct {
	directed bool
	adj      [][]arc
}

type arc struct {
	dst graph.VertexID
	w   graph.Weight
}

func newModel(n int, directed bool, initial []graph.Edge) *model {
	m := &model{directed: directed, adj: make([][]arc, n)}
	add := func(s, d graph.VertexID, w graph.Weight) {
		m.grow(s)
		m.grow(d)
		m.adj[s] = append(m.adj[s], arc{dst: d, w: w})
	}
	for _, e := range initial {
		add(e.Src, e.Dst, e.W)
		if !directed {
			add(e.Dst, e.Src, e.W)
		}
	}
	// A stable sort keeps duplicates in arrival order, so keeping the
	// first of each run is the first-weight-wins rule.
	for v, as := range m.adj {
		sort.SliceStable(as, func(i, j int) bool { return as[i].dst < as[j].dst })
		out := as[:0]
		for _, a := range as {
			if len(out) == 0 || a.dst != out[len(out)-1].dst {
				out = append(out, a)
			}
		}
		m.adj[v] = out
	}
	return m
}

func (m *model) grow(v graph.VertexID) {
	for int(v) >= len(m.adj) {
		m.adj = append(m.adj, nil)
	}
}

func (m *model) addArc(s, d graph.VertexID, w graph.Weight) {
	m.grow(s)
	m.grow(d)
	as := m.adj[s]
	i := sort.Search(len(as), func(i int) bool { return as[i].dst >= d })
	if i < len(as) && as[i].dst == d {
		return // first weight wins
	}
	as = append(as, arc{})
	copy(as[i+1:], as[i:])
	as[i] = arc{dst: d, w: w}
	m.adj[s] = as
}

func (m *model) delArc(s, d graph.VertexID) {
	if int(s) >= len(m.adj) {
		return
	}
	as := m.adj[s]
	i := sort.Search(len(as), func(i int) bool { return as[i].dst >= d })
	if i < len(as) && as[i].dst == d {
		m.adj[s] = append(as[:i], as[i+1:]...)
	}
}

func (m *model) insert(edges []graph.Edge) {
	for _, e := range edges {
		m.addArc(e.Src, e.Dst, e.W)
		if !m.directed {
			m.addArc(e.Dst, e.Src, e.W)
		}
	}
}

func (m *model) remove(edges []graph.Edge) {
	for _, e := range edges {
		m.delArc(e.Src, e.Dst)
		if !m.directed {
			m.delArc(e.Dst, e.Src)
		}
	}
}

func (m *model) apply(w writeOp) {
	if w.del {
		m.remove(w.edges)
	} else {
		m.insert(w.edges)
	}
}

// csr flattens the model for the oracle.
func (m *model) csr() *graph.CSR {
	n := len(m.adj)
	off := make([]int64, n+1)
	for v, as := range m.adj {
		off[v+1] = off[v] + int64(len(as))
	}
	adj := make([]graph.VertexID, off[n])
	wgt := make([]graph.Weight, off[n])
	for v, as := range m.adj {
		for i, a := range as {
			adj[off[v]+int64(i)] = a.dst
			wgt[off[v]+int64(i)] = a.w
		}
	}
	return &graph.CSR{Off: off, Adj: adj, Wgt: wgt, N: n, Directed: m.directed}
}
