// Service: embedding the Tripoline HTTP query service in a program. The
// example starts the JSON API on a loopback listener, drives it as a
// client — streaming a batch, issuing Δ-based queries over HTTP, reading
// repeated answers from the Δ-result cache (including a stale=ok serve
// after a mutation), and holding a subscription stream that receives a
// delta frame when a batch lands — and exits. It is the in-process
// version of cmd/tripoline-server.
//
// Run: go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

func main() {
	// Build the system: a small power-law graph with SSWP standing queries.
	cfg := gen.Config{Name: "svc", LogN: 11, AvgDegree: 10, Directed: false, Seed: 11}
	g := streamgraph.New(cfg.N(), false)
	edges := gen.RMAT(cfg)
	g.InsertEdges(edges[:len(edges)*3/4])
	sys := core.NewSystem(g, 8)
	if err := sys.Enable("SSWP"); err != nil {
		log.Fatal(err)
	}
	// Serving layer: cache every query answer so repeats skip evaluation
	// (and the admission gate) entirely.
	sys.EnableResultCache(256)

	// Serve on an ephemeral loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Production-shaped options: a per-query deadline (enforced by the
	// engine at superstep boundaries) and a bounded admission gate.
	api := server.New(sys, g,
		server.WithQueryTimeout(5*time.Second),
		server.WithMaxInFlight(4, 16),
	)
	srv := &http.Server{Handler: api}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// Stream the remaining edges through the API.
	type edgeJSON struct {
		Src uint32 `json:"src"`
		Dst uint32 `json:"dst"`
		W   uint32 `json:"w"`
	}
	batch := struct {
		Edges []edgeJSON `json:"edges"`
	}{}
	for _, e := range edges[len(edges)*3/4:] {
		batch.Edges = append(batch.Edges, edgeJSON{uint32(e.Src), uint32(e.Dst), uint32(e.W)})
	}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var rep map[string]any
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	fmt.Printf("batch applied: %v edges, standing re-eval %.4fs\n",
		rep["applied"], rep["standing_seconds"])

	// Ask for widest paths from two arbitrary sources over HTTP.
	for _, src := range []int{123, 1500} {
		r, err := http.Get(fmt.Sprintf("%s/v1/query?problem=SSWP&source=%d", base, src))
		if err != nil {
			log.Fatal(err)
		}
		var q struct {
			Seconds     float64  `json:"seconds"`
			Activations int64    `json:"activations"`
			Values      []uint64 `json:"values"`
		}
		json.NewDecoder(r.Body).Decode(&q)
		r.Body.Close()
		wide, reach := 0, 0
		for i, v := range q.Values {
			if i == src || v == 0 {
				continue
			}
			reach++
			if v >= 8 {
				wide++
			}
		}
		fmt.Printf("SSWP(%d) over HTTP: %d reachable, %d with bottleneck ≥8, "+
			"%d activations in %.4fs\n", src, reach, wide, q.Activations, q.Seconds)
	}

	// Repeat a query: the Δ-result cache serves it without re-evaluating,
	// announced by the X-Tripoline-Cache header.
	r2, err := http.Get(base + "/v1/query?problem=SSWP&source=123")
	if err != nil {
		log.Fatal(err)
	}
	r2.Body.Close()
	fmt.Printf("repeat SSWP(123): cache=%q version=%s\n",
		r2.Header.Get("X-Tripoline-Cache"), r2.Header.Get("X-Tripoline-Version"))

	// Subscribe to SSWP(123) as an SSE stream, then land a batch that
	// changes its answer: the stream pushes a delta frame (changed
	// vertices only) at the new version.
	sseResp, err := http.Get(base + "/v1/subscribe?problem=SSWP&src=123")
	if err != nil {
		log.Fatal(err)
	}
	sse := bufio.NewReader(sseResp.Body)
	readFrame := func() (string, string) {
		var event, data string
		for {
			line, err := sse.ReadString('\n')
			if err != nil {
				log.Fatal(err)
			}
			line = strings.TrimRight(line, "\n")
			if line == "" && event != "" {
				return event, data
			}
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = v
			}
		}
	}
	event, _ := readFrame()
	fmt.Println("subscribed to SSWP(123), first frame:", event)

	wideBatch, _ := json.Marshal(map[string]any{
		"edges": []map[string]any{{"src": 123, "dst": 777, "w": 200}},
	})
	bresp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(wideBatch))
	if err != nil {
		log.Fatal(err)
	}
	var brep struct {
		Version    uint64 `json:"version"`
		FramesSent int    `json:"frames_sent"`
	}
	json.NewDecoder(bresp.Body).Decode(&brep)
	bresp.Body.Close()
	event, data := readFrame()
	var frame struct {
		Version uint64           `json:"version"`
		Changed []map[string]any `json:"changed"`
	}
	json.Unmarshal([]byte(data), &frame)
	fmt.Printf("batch v%d pushed %d frame(s); %s frame carried %d changed vertices at v%d\n",
		brep.Version, brep.FramesSent, event, len(frame.Changed), frame.Version)
	sseResp.Body.Close()

	// The cached entry from before the batch is now stale: strict serving
	// re-evaluates, but a client that prefers latency can opt in.
	r3, err := http.Get(base + "/v1/query?problem=SSWP&source=123&stale=ok")
	if err != nil {
		log.Fatal(err)
	}
	r3.Body.Close()
	fmt.Printf("stale=ok SSWP(123): cache=%q stale_batches=%s\n",
		r3.Header.Get("X-Tripoline-Cache"), r3.Header.Get("X-Tripoline-Stale-Batches"))

	// The serving layer counts everything it did; scrape it.
	r, err := http.Get(base + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "tripoline_queries_total") ||
			strings.HasPrefix(line, "tripoline_batches_total") ||
			strings.HasPrefix(line, "tripoline_cache_hits_total") ||
			strings.HasPrefix(line, "tripoline_subscribe_frames_total") {
			fmt.Println("metric:", line)
		}
	}
	r.Body.Close()
}
