package qtrace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
	"time"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/) identities and
// the traceparent/tracestate wire format, hand-rolled so the query service
// can join distributed traces without any OpenTelemetry dependency. A
// client's inbound traceparent becomes the ancestor of the cursor's query
// trace, and every response of a cursor session echoes the query span's
// traceparent, so the client can file the whole session under its own
// trace and find the server's side at /debug/queries/<cursor id>.

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// distributed trace.
type TraceID [16]byte

// SpanID is the 8-byte W3C identifier of one span.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// parseTraceID parses 32 hex digits; ok is false for malformed or all-zero
// input.
func parseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(strings.ToLower(s))); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// parseSpanID parses 16 hex digits; ok is false for malformed or all-zero
// input.
func parseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(strings.ToLower(s))); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// FlagSampled is the traceparent sampled flag: upstream wants this trace
// recorded.
const FlagSampled byte = 0x01

// SpanContext is one span's W3C identity: the trace it belongs to, its own
// span id, the trace flags, and the vendor tracestate, propagated opaquely.
// The zero value is "no trace context".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
	// State is the raw tracestate header value, carried through untouched
	// (this system adds no entries of its own).
	State string
}

// Valid reports whether the context carries usable identifiers.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Sampled reports the sampled trace flag.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// TraceParent renders the context in traceparent wire format,
// "00-<trace-id>-<span-id>-<flags>". Empty for an invalid context.
func (sc SpanContext) TraceParent() string {
	if !sc.Valid() {
		return ""
	}
	var b strings.Builder
	b.Grow(55)
	b.WriteString("00-")
	b.WriteString(sc.TraceID.String())
	b.WriteByte('-')
	b.WriteString(sc.SpanID.String())
	b.WriteByte('-')
	const hexdigits = "0123456789abcdef"
	b.WriteByte(hexdigits[sc.Flags>>4])
	b.WriteByte(hexdigits[sc.Flags&0x0f])
	return b.String()
}

// ParseTraceParent parses a traceparent header value. Per the W3C spec,
// version ff is invalid, versions above 00 are accepted as long as the
// 00-format prefix parses (forward compatibility), and all-zero trace or
// parent ids are rejected.
func ParseTraceParent(s string) (SpanContext, bool) {
	s = strings.TrimSpace(s)
	if len(s) < 55 {
		return SpanContext{}, false
	}
	version := s[0:2]
	if version == "ff" || !isHex(version) {
		return SpanContext{}, false
	}
	// A version-00 value is exactly 55 chars; later versions may append
	// fields after another dash.
	if len(s) > 55 {
		if version == "00" || s[55] != '-' {
			return SpanContext{}, false
		}
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	tid, ok := parseTraceID(s[3:35])
	if !ok {
		return SpanContext{}, false
	}
	sid, ok := parseSpanID(s[36:52])
	if !ok {
		return SpanContext{}, false
	}
	if !isHex(s[53:55]) {
		return SpanContext{}, false
	}
	var flags [1]byte
	hex.Decode(flags[:], []byte(strings.ToLower(s[53:55])))
	return SpanContext{TraceID: tid, SpanID: sid, Flags: flags[0]}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// idSeq de-duplicates the fallback id stream if crypto/rand ever fails
// (practically impossible; a nanosecond clock alone could collide under
// concurrency).
var idSeq atomic.Uint64

// NewTraceID returns a fresh random trace id.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil || t.IsZero() {
		binary.BigEndian.PutUint64(t[0:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(t[8:16], idSeq.Add(1))
	}
	return t
}

// NewSpanID returns a fresh random span id.
func NewSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil || s.IsZero() {
		binary.BigEndian.PutUint64(s[:], uint64(time.Now().UnixNano())^idSeq.Add(1))
	}
	return s
}
