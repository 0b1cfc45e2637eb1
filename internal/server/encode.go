package server

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The pull encoder: the /next document, the NDJSON pair lines and the
// stream trailer, appended to a reused buffer byte for byte as
// json.NewEncoder(w).Encode writes NextResponse, PairJSON and streamTrailer
// (HTML-safe string escaping, floats in ES6 form, a trailing newline), but
// without reflection or an allocation per pull. encoding/json refuses NaN
// and ±Inf, and Encode then writes nothing; the encoder reports such a
// document as not encodable, and its caller writes nothing either.
// FuzzPullEncoding holds the two to the same bytes.

// pullScratch is one pull's reusable memory: the pairs a next pull draws
// and the bytes its answer encodes to.
type pullScratch struct {
	pairs []PairJSON
	buf   []byte
}

var pullScratches = sync.Pool{New: func() any {
	// pairs starts non-nil: an empty pull answers "pairs":[], not null.
	return &pullScratch{pairs: make([]PairJSON, 0, 64), buf: make([]byte, 0, 2048)}
}}

// appendNext appends the /next document r, or reports false when a distance
// is not finite.
func appendNext(b []byte, r *NextResponse) ([]byte, bool) {
	b = append(b, `{"cursor":`...)
	b = appendString(b, r.Cursor)
	b = append(b, `,"pairs":`...)
	if r.Pairs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range r.Pairs {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendPair(b, p); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"done":`...)
	b = strconv.AppendBool(b, r.Done)
	b = append(b, `,"reported":`...)
	b = strconv.AppendInt(b, r.Reported, 10)
	b = append(b, `,"expires_at":`...)
	b = appendString(b, r.ExpiresAt)
	if r.Truncated != "" {
		b = append(b, `,"truncated":`...)
		b = appendString(b, r.Truncated)
	}
	return append(b, "}\n"...), true
}

// appendPairLine appends one NDJSON pair line, or reports false when its
// distance is not finite.
func appendPairLine(b []byte, p PairJSON) ([]byte, bool) {
	b, ok := appendPair(b, p)
	return append(b, '\n'), ok
}

// appendTrailer appends the NDJSON trailer line t.
func appendTrailer(b []byte, t *streamTrailer) []byte {
	b = append(b, `{"done":`...)
	b = strconv.AppendBool(b, t.Done)
	b = append(b, `,"reported":`...)
	b = strconv.AppendInt(b, t.Reported, 10)
	if t.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, t.Error)
	}
	if t.Truncated != "" {
		b = append(b, `,"truncated":`...)
		b = appendString(b, t.Truncated)
	}
	return append(b, "}\n"...)
}

func appendPair(b []byte, p PairJSON) ([]byte, bool) {
	if math.IsInf(p.Dist, 0) || math.IsNaN(p.Dist) {
		return b, false
	}
	b = append(b, `{"obj1":`...)
	b = strconv.AppendUint(b, p.Obj1, 10)
	b = append(b, `,"obj2":`...)
	b = strconv.AppendUint(b, p.Obj2, 10)
	b = append(b, `,"dist":`...)
	b = appendFloat(b, p.Dist)
	return append(b, '}'), true
}

// appendFloat appends a finite f as encoding/json does: the shortest
// round-tripping form, in exponent form below 1e-6 and from 1e21 on, with
// a single-digit negative exponent unpadded.
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

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping: ", \ and control characters escaped, <, > and & as \u00XX,
// invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
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
