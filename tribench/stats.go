package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported.
const minBeyond = 10

// inf is the latency a failed request counts with.
var inf = math.Inf(1)

// percentile returns the nearest-rank q-quantile of xs. A tail
// percentile (q > 0.5) is reported only when at least minBeyond samples
// lie beyond it, so p99 needs 1000 samples and p90 needs 100; the
// median needs one.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
