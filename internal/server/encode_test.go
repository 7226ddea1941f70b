package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// queryResponse and queryManyResponse are the reference: the structs the
// /v1/query and /v1/querymany bodies were encoded from with
// json.NewEncoder(w).Encode. The append encoder must reproduce their
// encoding byte for byte.
type queryResponse struct {
	Problem     string   `json:"problem"`
	Source      uint32   `json:"source"`
	Incremental bool     `json:"incremental"`
	Seconds     float64  `json:"seconds"`
	Activations int64    `json:"activations"`
	Version     uint64   `json:"version"`
	Values      []uint64 `json:"values"`
	Counts      []uint64 `json:"counts,omitempty"`
	Radius      uint64   `json:"radius,omitempty"`
}

type queryManyResponse struct {
	Problem string   `json:"problem"`
	Sources []uint32 `json:"sources"`
	Width   int      `json:"width"`
	Version uint64   `json:"version"`
	Seconds float64  `json:"seconds"`
	Values  []uint64 `json:"values"`
}

// referenceJSON encodes v the way the server's responses were encoded
// before the append encoder; ok=false when encoding/json rejects v.
func referenceJSON(v any) (body []byte, ok bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// digitEdges are the values either side of appendDecimal's branch
// boundaries.
var digitEdges = []uint64{10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, math.MaxUint64 - 1}

// fuzzValues maps each input byte onto one value, so short inputs reach
// every branch of the encoder: the unreached sentinel, single digits,
// the digit-count boundaries (10 included) and values of every length.
func fuzzValues(raw []byte) []uint64 {
	out := make([]uint64, 0, len(raw))
	for _, b := range raw {
		switch b & 3 {
		case 0:
			out = append(out, math.MaxUint64)
		case 1:
			out = append(out, uint64(b>>2)%10)
		case 2:
			out = append(out, digitEdges[int(b>>2)%len(digitEdges)])
		default:
			out = append(out, uint64(b)*0x9E3779B97F4A7C15>>(b%64))
		}
	}
	return out
}

// FuzzQueryResponse holds the append encoder to encoding/json of the
// reference structs, for /v1/query and /v1/querymany bodies alike.
func FuzzQueryResponse(f *testing.F) {
	f.Add("SSSP", uint32(42), true, 0.0025, int64(7), uint64(3), []byte{0, 1, 37, 38, 2, 3}, false, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, problem string, source uint32, incremental bool, seconds float64,
		activations int64, version uint64, rawValues []byte, nilValues bool, rawCounts []byte, radius uint64) {
		values := fuzzValues(rawValues)
		if nilValues {
			values = nil
		}
		counts := fuzzValues(rawCounts)
		res := &core.QueryResult{
			Problem: problem, Source: graph.VertexID(source), Incremental: incremental,
			Stats: engine.Stats{Activations: activations}, Version: version,
			Values: values, Counts: counts, Radius: radius,
		}
		if want, ok := referenceJSON(queryResponse{
			Problem: problem, Source: source, Incremental: incremental, Seconds: seconds,
			Activations: activations, Version: version, Values: values, Counts: counts, Radius: radius,
		}); ok {
			if got := appendQueryResponse(nil, res, seconds); !bytes.Equal(got, want) {
				t.Fatalf("query body differs\n got %s\nwant %s", got, want)
			}
		}

		// The querymany body over the same inputs: the counts double as
		// the source list, the activations as the elapsed time.
		var sources []uint32
		if counts != nil && !nilValues {
			sources = make([]uint32, len(counts))
			for i, c := range counts {
				sources[i] = uint32(c)
			}
		}
		multi := &core.MultiResult{
			Problem: problem, Width: int(source % 65), Version: version,
			Elapsed: time.Duration(activations), Values: values,
		}
		want, _ := referenceJSON(queryManyResponse{
			Problem: problem, Sources: sources, Width: multi.Width, Version: version,
			Seconds: multi.Elapsed.Seconds(), Values: values,
		})
		if got := appendQueryManyResponse(nil, multi, sources); !bytes.Equal(got, want) {
			t.Fatalf("querymany body differs\n got %s\nwant %s", got, want)
		}
	})
}

// realisticValues is a 65,536-vertex SSSP-shaped answer: a fifth of the
// vertices unreached, a few single digits, the rest two- to four-digit
// distances.
func realisticValues() []uint64 {
	vals := make([]uint64, 1<<16)
	for i := range vals {
		switch h := uint64(i) * 0x9E3779B97F4A7C15 >> 54; {
		case h < 205:
			vals[i] = math.MaxUint64
		case h < 215:
			vals[i] = h % 10
		default:
			vals[i] = 10 + h*h%4000
		}
	}
	return vals
}

// BenchmarkWriteQueryResult measures encoding one 65,536-value /v1/query
// body into a discarded response.
func BenchmarkWriteQueryResult(b *testing.B) {
	res := &core.QueryResult{Problem: "SSSP", Source: 42, Incremental: true,
		Elapsed: 1234 * time.Microsecond, Version: 7, Values: realisticValues()}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeQueryResult(w, res)
	}
	b.SetBytes(int64(w.n / b.N))
}

// discardWriter is an http.ResponseWriter that keeps the headers and
// status and counts, but drops, the body — so measuring a request's
// allocations does not count a recorder's buffer.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
