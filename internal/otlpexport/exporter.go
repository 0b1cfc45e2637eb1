package otlpexport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distjoin/internal/pager"
	"distjoin/internal/qtrace"
)

// Config configures New. Only Endpoint is required.
type Config struct {
	// Endpoint is the collector's traces URL, e.g.
	// "http://localhost:4318/v1/traces".
	Endpoint string
	// Service is the resource's service.name. Default "distjoind".
	Service string
	// Logger, when non-nil, receives a warn line per dropped batch and per
	// retry ladder exhaustion.
	Logger *slog.Logger
}

// The exporter's fixed settings (tests inject only the retry policy).
const (
	// queueSize bounds the span groups (one completed query or one pull
	// span each) buffered between producers and the export goroutine. When
	// the queue is full, Enqueue drops and counts — trace export must never
	// apply backpressure to the query path.
	queueSize = 256
	// batchSize caps how many buffered groups one POST carries.
	batchSize = 32
	// flushInterval bounds how long a buffered span waits for its batch.
	flushInterval = 3 * time.Second
)

// exportRetry bounds re-attempts of a failed POST: transport errors and
// HTTP 429/5xx are retried with exponential backoff; anything else drops the
// batch at once.
var exportRetry = pager.RetryPolicy{MaxAttempts: 4, Backoff: 250 * time.Millisecond, Multiplier: 2, MaxBackoff: 2 * time.Second}

// postClient is the HTTP client every export POST goes through.
var postClient = &http.Client{Timeout: 10 * time.Second}

// Exporter converts span groups to OTLP/HTTP-JSON and ships them to a
// collector from a single background goroutine, batching and retrying with
// bounded buffering. A nil *Exporter is valid and inert everywhere, so the
// server wires it unconditionally and disabled deployments pay nothing.
type Exporter struct {
	cfg   Config
	retry pager.RetryPolicy

	mu     sync.Mutex // guards closed + send into ch
	closed bool
	ch     chan []Span

	flushReq chan chan struct{}
	done     chan struct{} // closed when the export goroutine exits

	// Drop/throughput accounting, exposed on /metrics.
	enqueuedSpans atomic.Int64
	exportedSpans atomic.Int64
	batches       atomic.Int64
	retries       atomic.Int64
	droppedQueue  atomic.Int64 // spans dropped because the queue was full
	droppedExport atomic.Int64 // spans dropped after a failed export
}

// New starts an exporter. Callers own its lifetime: Close (or Flush at
// shutdown) before process exit, or buffered spans are lost.
func New(cfg Config) *Exporter { return newExporter(cfg, exportRetry) }

// newExporter is New with the retry policy injected, for tests.
func newExporter(cfg Config, retry pager.RetryPolicy) *Exporter {
	if cfg.Service == "" {
		cfg.Service = "distjoind"
	}
	e := &Exporter{
		cfg:      cfg,
		retry:    retry,
		ch:       make(chan []Span, queueSize),
		flushReq: make(chan chan struct{}),
		done:     make(chan struct{}),
	}
	e.retry.OnRetry = func(string, int, error) { e.retries.Add(1) }
	go e.run()
	return e
}

// OnComplete adapts the exporter to qtrace.Config.OnComplete: every
// completed query trace is flattened and enqueued. Nil-safe.
func (e *Exporter) OnComplete(qt *qtrace.QueryTrace) {
	if e == nil || qt == nil {
		return
	}
	e.EnqueueSpans(SpansFromQueryTrace(qt))
}

// EnqueueSpans buffers one span group for export. Never blocks: when the
// queue is full or the exporter is closed, the group is dropped and
// counted. Nil-safe.
func (e *Exporter) EnqueueSpans(spans []Span) {
	if e == nil || len(spans) == 0 {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.droppedQueue.Add(int64(len(spans)))
		return
	}
	select {
	case e.ch <- spans:
		e.enqueuedSpans.Add(int64(len(spans)))
	default:
		e.droppedQueue.Add(int64(len(spans)))
	}
	e.mu.Unlock()
}

// Flush drains everything buffered so far and exports it, returning when
// the queue is empty or after timeout. The SIGTERM drain path calls this
// after the server's cursors have finished so the final queries' spans
// reach the collector. Nil-safe.
func (e *Exporter) Flush(timeout time.Duration) error {
	if e == nil {
		return nil
	}
	ack := make(chan struct{})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case e.flushReq <- ack:
	case <-e.done:
		return nil
	case <-timer.C:
		return fmt.Errorf("otlpexport: flush request timed out after %v", timeout)
	}
	select {
	case <-ack:
		return nil
	case <-timer.C:
		return fmt.Errorf("otlpexport: flush timed out after %v", timeout)
	}
}

// Close flushes buffered spans and stops the export goroutine. Idempotent;
// nil-safe.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.ch)
	e.mu.Unlock()
	<-e.done
	return nil
}

// run is the export goroutine: batch up, flush on size, interval, request,
// or shutdown.
func (e *Exporter) run() {
	defer close(e.done)
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	var batch []Span
	groups := 0
	flush := func() {
		if len(batch) > 0 {
			e.export(batch)
			batch, groups = nil, 0
		}
	}
	for {
		select {
		case spans, ok := <-e.ch:
			if !ok {
				flush()
				return
			}
			batch = append(batch, spans...)
			if groups++; groups >= batchSize {
				flush()
			}
		case <-ticker.C:
			flush()
		case ack := <-e.flushReq:
			// Drain whatever is already buffered, then export it all.
		drain:
			for {
				select {
				case spans, ok := <-e.ch:
					if !ok {
						break drain
					}
					batch = append(batch, spans...)
				default:
					break drain
				}
			}
			flush()
			close(ack)
		}
	}
}

// export POSTs one batch, retrying transport errors and HTTP 429/5xx under
// the configured policy. A batch that still fails is dropped and counted —
// the exporter never grows without bound on a dead collector.
func (e *Exporter) export(spans []Span) {
	body, err := json.Marshal(Request(e.cfg.Service, spans))
	if err != nil { // unreachable with these types; belt and braces
		e.droppedExport.Add(int64(len(spans)))
		return
	}
	err = e.retry.Do("otlp export", func() error { return e.post(body) })
	if err != nil {
		e.droppedExport.Add(int64(len(spans)))
		if e.cfg.Logger != nil {
			e.cfg.Logger.Warn("otlp export failed, batch dropped",
				"spans", len(spans), "endpoint", e.cfg.Endpoint, "error", err)
		}
		return
	}
	e.exportedSpans.Add(int64(len(spans)))
	e.batches.Add(1)
}

// post performs one POST attempt, classifying retryable outcomes as
// pager.ErrTransient for the retry policy.
func (e *Exporter) post(body []byte) error {
	resp, err := postClient.Post(e.cfg.Endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", pager.ErrTransient, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return fmt.Errorf("%w: collector returned %s", pager.ErrTransient, resp.Status)
	default:
		return fmt.Errorf("otlpexport: collector returned %s", resp.Status)
	}
}

// Stats is a point-in-time summary of the exporter's counters.
type Stats struct {
	EnqueuedSpans int64 `json:"enqueued_spans"`
	ExportedSpans int64 `json:"exported_spans"`
	Batches       int64 `json:"batches"`
	Retries       int64 `json:"retries"`
	DroppedQueue  int64 `json:"dropped_queue"`
	DroppedExport int64 `json:"dropped_export"`
}

// StatsSnapshot returns the current counters. Nil-safe (zero stats).
func (e *Exporter) StatsSnapshot() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{
		EnqueuedSpans: e.enqueuedSpans.Load(),
		ExportedSpans: e.exportedSpans.Load(),
		Batches:       e.batches.Load(),
		Retries:       e.retries.Load(),
		DroppedQueue:  e.droppedQueue.Load(),
		DroppedExport: e.droppedExport.Load(),
	}
}

// WritePrometheus joins the /metrics exposition (the extras hook of
// obs.WriteMetricsTraced): throughput and — the alert that matters — the
// two drop counters. Nil-safe (writes nothing).
func (e *Exporter) WritePrometheus(w io.Writer) {
	if e == nil {
		return
	}
	s := e.StatsSnapshot()
	writeCounter(w, "distjoin_otlp_exported_spans_total", "Spans delivered to the OTLP collector.", s.ExportedSpans)
	writeCounter(w, "distjoin_otlp_batches_total", "Export batches delivered to the OTLP collector.", s.Batches)
	writeCounter(w, "distjoin_otlp_dropped_queue_spans_total", "Spans dropped because the exporter queue was full or closed.", s.DroppedQueue)
	writeCounter(w, "distjoin_otlp_dropped_export_spans_total", "Spans dropped after export failed through all retries.", s.DroppedExport)
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}
