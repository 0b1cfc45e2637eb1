// Package otlptest is an in-process OTLP/HTTP-JSON trace collector for
// tests and the mock collector command (internal/otlpexport/mockotlp): it
// validates what the exporter sends against the exporter's wire contract
// and keeps it for assertions.
package otlptest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"distjoin/internal/otlpexport"
)

// Collector accepts POST /v1/traces, validates every span against the
// subset of the protocol the exporter emits (otlpexport.ValidateWireSpan,
// the constraints of internal/otlpexport/testdata/otlpspan.schema.json),
// and retains what it received for assertions.
//
//	POST /v1/traces  ingest an ExportRequest; 400 on malformed spans
//	GET  /v1/traces  dump received spans grouped by trace id, as JSON
//	GET  /stats      ingestion counters, as JSON
//
// FailFirst, set before serving, makes the first n POSTs return 503 — the
// hook the smoke run uses to prove the exporter's retry ladder.
type Collector struct {
	// FailFirst rejects this many leading POSTs with 503.
	FailFirst int

	mu       sync.Mutex
	posts    int
	rejected int
	spans    []otlpexport.WireSpan
	services []string
}

// CollectorStats is the /stats document.
type CollectorStats struct {
	Posts    int      `json:"posts"`
	Rejected int      `json:"rejected_posts"`
	Spans    int      `json:"spans"`
	Services []string `json:"services"`
}

// ServeHTTP implements the three routes.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/traces" && r.Method == http.MethodPost:
		c.ingest(w, r)
	case r.URL.Path == "/v1/traces" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Traces())
	case r.URL.Path == "/stats":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Stats())
	default:
		http.NotFound(w, r)
	}
}

func (c *Collector) ingest(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.posts++
	if c.posts <= c.FailFirst {
		c.rejected++
		c.mu.Unlock()
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	c.mu.Unlock()

	var req otlpexport.ExportRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // the schema subset is closed: unknown fields are a contract break
	if err := dec.Decode(&req); err != nil {
		c.reject(w, fmt.Errorf("decoding body: %w", err))
		return
	}
	var batch []otlpexport.WireSpan
	var services []string
	for _, rs := range req.ResourceSpans {
		svc := resourceService(rs)
		if svc == "" {
			c.reject(w, fmt.Errorf("resource has no service.name attribute"))
			return
		}
		services = append(services, svc)
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if err := otlpexport.ValidateWireSpan(sp); err != nil {
					c.reject(w, fmt.Errorf("span %q: %w", sp.Name, err))
					return
				}
				batch = append(batch, sp)
			}
		}
	}
	c.mu.Lock()
	c.spans = append(c.spans, batch...)
	for _, svc := range services {
		if !slices.Contains(c.services, svc) {
			c.services = append(c.services, svc)
		}
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, "{}") // empty ExportTraceServiceResponse: full success
}

func (c *Collector) reject(w http.ResponseWriter, err error) {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// Stats returns the ingestion counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		Posts:    c.posts,
		Rejected: c.rejected,
		Spans:    len(c.spans),
		Services: append([]string(nil), c.services...),
	}
}

// Spans returns every accepted span, in arrival order.
func (c *Collector) Spans() []otlpexport.WireSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]otlpexport.WireSpan(nil), c.spans...)
}

// Traces groups the accepted spans by trace id, sorted by id for stable
// output.
func (c *Collector) Traces() map[string][]otlpexport.WireSpan {
	out := map[string][]otlpexport.WireSpan{}
	for _, sp := range c.Spans() {
		out[sp.TraceID] = append(out[sp.TraceID], sp)
	}
	return out
}

// TraceIDs lists the distinct trace ids received, sorted.
func (c *Collector) TraceIDs() []string {
	byID := c.Traces()
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func resourceService(rs otlpexport.ResourceSpans) string {
	for _, kv := range rs.Resource.Attributes {
		if kv.Key == "service.name" && kv.Value.StringValue != nil {
			return *kv.Value.StringValue
		}
	}
	return ""
}
