package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"tripoline/internal/core"
)

// Query bodies are the bulk of what the server writes: one value per
// vertex, tens of thousands of values per answer. They are built by
// appending into a pooled buffer rather than through encoding/json's
// reflection, and the bytes are exactly what json.NewEncoder(w).Encode
// wrote for the response structs these functions replaced — field order,
// omitempty, float formatting, HTML-safe string escaping and the
// trailing newline included (FuzzQueryResponse holds them to it).

// maxPooledBody caps the buffer a finished response returns to the pool,
// so one huge /v1/querymany answer does not stay resident.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody writes an encoded JSON body built by appendBody into a
// pooled buffer.
func writeBody(w http.ResponseWriter, appendBody func([]byte) []byte) int {
	w.Header().Set("Content-Type", "application/json")
	bp := bodyPool.Get().(*[]byte)
	b := appendBody((*bp)[:0])
	_, _ = w.Write(b)
	if cap(b) > maxPooledBody {
		b = nil
	}
	*bp = b
	bodyPool.Put(bp)
	return http.StatusOK
}

// writeQueryResult writes the standard query body plus the
// X-Tripoline-Version header (always matching the JSON version field, so
// version-aware clients need not parse the body). res is only read, so
// it may be a cache entry's read-only view.
func writeQueryResult(w http.ResponseWriter, res *core.QueryResult) int {
	w.Header().Set("X-Tripoline-Version", strconv.FormatUint(res.Version, 10))
	return writeBody(w, func(b []byte) []byte {
		return appendQueryResponse(b, res, res.Elapsed.Seconds())
	})
}

// appendQueryResponse appends the /v1/query body for res, with seconds
// as the "seconds" field: {"problem","source","incremental","seconds",
// "activations","version","values"} then "counts" and "radius" when
// non-empty. "version" is the snapshot version the answer is exact for —
// under concurrent writes a client needs it to know which graph it got
// an answer about, and to audit it later through /v1/queryat.
func appendQueryResponse(b []byte, res *core.QueryResult, seconds float64) []byte {
	b = append(b, `{"problem":`...)
	b = appendString(b, res.Problem)
	b = append(b, `,"source":`...)
	b = strconv.AppendUint(b, uint64(uint32(res.Source)), 10)
	b = append(b, `,"incremental":`...)
	b = strconv.AppendBool(b, res.Incremental)
	b = append(b, `,"seconds":`...)
	b = appendFloat(b, seconds)
	b = append(b, `,"activations":`...)
	b = strconv.AppendInt(b, res.Stats.Activations, 10)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, res.Version, 10)
	b = append(b, `,"values":`...)
	b = appendUints(b, res.Values)
	if len(res.Counts) > 0 {
		b = append(b, `,"counts":`...)
		b = appendUints(b, res.Counts)
	}
	if res.Radius != 0 {
		b = append(b, `,"radius":`...)
		b = strconv.AppendUint(b, res.Radius, 10)
	}
	return append(b, "}\n"...)
}

// appendQueryManyResponse appends the /v1/querymany body: the request's
// sources and the stride-Width values (values[x*width+j] is query j's
// value at vertex x).
func appendQueryManyResponse(b []byte, res *core.MultiResult, sources []uint32) []byte {
	b = append(b, `{"problem":`...)
	b = appendString(b, res.Problem)
	b = append(b, `,"sources":`...)
	b = appendUints(b, sources)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(res.Width), 10)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, res.Version, 10)
	b = append(b, `,"seconds":`...)
	b = appendFloat(b, res.Elapsed.Seconds())
	b = append(b, `,"values":`...)
	b = appendUints(b, res.Values)
	return append(b, "}\n"...)
}

// unreachedLit is ^uint64(0), the "unreached" value of the minimizing
// problems and a large share of every answer on a sparse graph.
const unreachedLit = "18446744073709551615"

// appendUints appends vals as a JSON array (null for a nil slice).
func appendUints[T uint32 | uint64](b []byte, vals []T) []byte {
	if vals == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDecimal(b, uint64(v))
	}
	return append(b, ']')
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendDecimal appends v in decimal. Values below 10,000 — the bulk of
// any answer's distances, levels and widths — are written digit pair by
// digit pair in one append, the unreached sentinel as a literal, and the
// rest through strconv.
func appendDecimal(b []byte, v uint64) []byte {
	switch {
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, digitPairs[2*v], digitPairs[2*v+1])
	case v < 1000:
		lo := v % 100 * 2
		return append(b, byte('0'+v/100), digitPairs[lo], digitPairs[lo+1])
	case v < 10000:
		hi, lo := v/100*2, v%100*2
		return append(b, digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1])
	case v == math.MaxUint64:
		return append(b, unreachedLit...)
	}
	return strconv.AppendUint(b, v, 10)
}

// appendFloat formats f as encoding/json does: ES6 number-to-string,
// 'e' notation below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded. f must be finite (encoding/json rejects the rest;
// every value written here is a duration).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string escaped as encoding/json does
// with HTML escaping on: quotes, backslashes and control characters, the
// HTML-significant <, > and &, U+2028 and U+2029, and each invalid UTF-8
// byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
