package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"distjoin/internal/qtrace"
)

// HTTP-layer observability: the RED/logging middleware every request passes
// through, and the saturation gauges. Both are optional — Config.Logger and
// Config.RED may each be nil — and the handlers never block on either.
// A cursor's pulls reach its query trace through the lifecycle (lease,
// release, end), not through this layer.

// statusWriter captures the response status for the middleware. It always
// implements http.Flusher (a no-op when the underlying writer cannot
// flush), so the NDJSON stream path keeps flushing through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpointName maps a request to its RED endpoint label: a small closed set
// so metric cardinality stays bounded no matter what paths clients probe.
func endpointName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/query":
		return "query"
	case strings.HasPrefix(p, "/v1/cursor/"):
		_, verb, _ := strings.Cut(strings.TrimPrefix(p, "/v1/cursor/"), "/")
		switch verb {
		case "next":
			return "next"
		case "stream":
			return "stream"
		case "":
			if r.Method == http.MethodDelete {
				return "delete"
			}
			return "info"
		}
		return "cursor_other"
	case p == "/v1/indexes":
		return "indexes"
	case p == "/healthz":
		return "healthz"
	case p == "/readyz":
		return "readyz"
	}
	return "other"
}

// observeMiddleware feeds every finished request to the RED collector and
// the structured request log. It runs outside recoverMiddleware so a
// recovered panic's 500 is observed like any other server error. The
// trace/query identity is read back from the response headers the handlers
// stamp via echoTrace, which keeps this layer ignorant of routing.
func (s *Server) observeMiddleware(h http.Handler) http.Handler {
	if s.cfg.RED == nil && s.cfg.Logger == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		ep := endpointName(r)
		query := sw.Header().Get("X-Distjoin-Query")
		s.cfg.RED.Observe(ep, status, dur, query)
		if s.cfg.Logger == nil {
			return
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case ep == "healthz" || ep == "readyz":
			level = slog.LevelDebug // probes are noise at info
		case status < 400 && (ep == "next" || ep == "stream"):
			// A session pulls many times; its create, its delete and any
			// failed pull carry its trace id at info.
			level = slog.LevelDebug
		}
		if !s.cfg.Logger.Enabled(r.Context(), level) {
			return
		}
		traceID := ""
		if sc, ok := qtrace.ParseTraceParent(sw.Header().Get("Traceparent")); ok {
			traceID = sc.TraceID.String()
		} else if sc := inboundContext(r); sc.Valid() {
			traceID = sc.TraceID.String()
		}
		s.cfg.Logger.LogAttrs(r.Context(), level, "request",
			slog.String("endpoint", ep),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Duration("duration", dur),
			slog.String("trace_id", traceID),
			slog.String("query", query),
		)
	})
}

// WritePrometheus prints the service's two saturation signals — cursor-table
// and in-flight occupancy against their limits — read from the table and
// the semaphore at scrape time. Mount it on /metrics via obs.HandlerTraced
// extras.
func (s *Server) WritePrometheus(w io.Writer) {
	open, _ := s.table.load()
	for _, g := range []struct {
		name, help string
		v          int
	}{
		{"distjoind_cursors_open", "Cursors holding a slot in the cursor table.", open},
		{"distjoind_cursors_max", "Cursor table size; creates beyond it answer 429.", s.cfg.MaxCursors},
		{"distjoind_pulls_inflight", "Pulls and creates executing right now.", len(s.inflight)},
		{"distjoind_pulls_inflight_max", "In-flight limit; requests beyond it answer 429.", cap(s.inflight)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
}
