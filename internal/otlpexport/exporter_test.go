package otlpexport_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distjoin/internal/otlpexport"
	"distjoin/internal/otlptest"
	"distjoin/internal/qtrace"
)

func TestExporterEndToEnd(t *testing.T) {
	col := &otlptest.Collector{}
	srv := httptest.NewServer(col)
	defer srv.Close()

	exp := otlpexport.NewWithRetry(otlpexport.Config{Endpoint: srv.URL + "/v1/traces", Service: "distjoind-test"}, otlpexport.FastRetry(1))
	// Wire the exporter the way distjoind does: as the tracer's completion
	// hook. Every finished query lands at the collector.
	tr := qtrace.New(qtrace.Config{OnComplete: exp.OnComplete})
	parent, _ := qtrace.ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	qt := otlpexport.TracedQuery(tr, "e2e-1", parent, nil)
	otlpexport.TracedQuery(tr, "e2e-2", qtrace.SpanContext{}, nil)

	if err := exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := exp.StatsSnapshot()
	if stats.DroppedQueue != 0 || stats.DroppedExport != 0 {
		t.Fatalf("drops on a healthy collector: %+v", stats)
	}
	if stats.ExportedSpans != stats.EnqueuedSpans || stats.ExportedSpans == 0 {
		t.Fatalf("exported %d of %d enqueued spans", stats.ExportedSpans, stats.EnqueuedSpans)
	}
	// The client's trace id arrived intact.
	byTrace := col.Traces()
	if _, ok := byTrace[qt.TraceID]; !ok {
		t.Fatalf("collector has traces %v, want %s among them", col.TraceIDs(), qt.TraceID)
	}
	if cs := col.Stats(); cs.Rejected != 0 || len(cs.Services) != 1 || cs.Services[0] != "distjoind-test" {
		t.Fatalf("collector stats: %+v", cs)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExporterRetriesTransientFailures(t *testing.T) {
	col := &otlptest.Collector{FailFirst: 2} // two 503s, then accept
	srv := httptest.NewServer(col)
	defer srv.Close()

	exp := otlpexport.NewWithRetry(otlpexport.Config{Endpoint: srv.URL + "/v1/traces"}, otlpexport.FastRetry(4))
	exp.EnqueueSpans(otlpexport.SpansFromQueryTrace(otlpexport.TracedQuery(qtrace.New(qtrace.Config{}), "retry-q", qtrace.SpanContext{}, nil)))
	if err := exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := exp.StatsSnapshot()
	if stats.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (two injected 503s)", stats.Retries)
	}
	if stats.DroppedExport != 0 || stats.ExportedSpans == 0 {
		t.Errorf("spans lost through the retry ladder: %+v", stats)
	}
	if col.Stats().Spans == 0 {
		t.Error("collector received nothing")
	}
	exp.Close()
}

func TestExporterDropsAfterExhaustedRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	exp := otlpexport.NewWithRetry(otlpexport.Config{Endpoint: srv.URL + "/v1/traces"}, otlpexport.FastRetry(3))
	exp.EnqueueSpans(otlpexport.SpansFromQueryTrace(otlpexport.TracedQuery(qtrace.New(qtrace.Config{}), "doomed", qtrace.SpanContext{}, nil)))
	if err := exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := exp.StatsSnapshot()
	if stats.DroppedExport != stats.EnqueuedSpans || stats.DroppedExport == 0 {
		t.Errorf("want the whole batch dropped and counted: %+v", stats)
	}
	if stats.ExportedSpans != 0 {
		t.Errorf("exported through a dead collector: %+v", stats)
	}
	exp.Close()
}

func TestExporterPermanentFailureSkipsRetry(t *testing.T) {
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts++
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()

	exp := otlpexport.NewWithRetry(otlpexport.Config{Endpoint: srv.URL + "/v1/traces"}, otlpexport.FastRetry(5))
	exp.EnqueueSpans(otlpexport.SpansFromQueryTrace(otlpexport.TracedQuery(qtrace.New(qtrace.Config{}), "rejected", qtrace.SpanContext{}, nil)))
	exp.Flush(5 * time.Second)
	exp.Close()
	if posts != 1 {
		t.Errorf("4xx retried %d times, want a single attempt", posts)
	}
	if stats := exp.StatsSnapshot(); stats.Retries != 0 || stats.DroppedExport == 0 {
		t.Errorf("stats after permanent failure: %+v", stats)
	}
}

func TestExporterNeverBlocksWhenClosed(t *testing.T) {
	srv := httptest.NewServer(&otlptest.Collector{})
	defer srv.Close()
	exp := otlpexport.New(otlpexport.Config{Endpoint: srv.URL + "/v1/traces"})
	exp.Close()
	done := make(chan struct{})
	go func() {
		exp.EnqueueSpans([]otlpexport.Span{{TraceID: qtrace.NewTraceID(), SpanID: qtrace.NewSpanID(), Name: "late"}})
		exp.OnComplete(&qtrace.QueryTrace{ID: "late", Kind: "join"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue blocked on a closed exporter")
	}
	if stats := exp.StatsSnapshot(); stats.DroppedQueue == 0 {
		t.Errorf("post-close enqueues not counted as drops: %+v", stats)
	}
	// Double Close and nil receivers are no-ops.
	exp.Close()
	var nilExp *otlpexport.Exporter
	nilExp.OnComplete(nil)
	nilExp.EnqueueSpans(nil)
	if err := nilExp.Flush(time.Second); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	nilExp.Close()
}

func TestExporterWritePrometheus(t *testing.T) {
	srv := httptest.NewServer(&otlptest.Collector{})
	defer srv.Close()
	exp := otlpexport.New(otlpexport.Config{Endpoint: srv.URL + "/v1/traces"})
	exp.EnqueueSpans(otlpexport.SpansFromQueryTrace(otlpexport.TracedQuery(qtrace.New(qtrace.Config{}), "m", qtrace.SpanContext{}, nil)))
	exp.Flush(5 * time.Second)
	defer exp.Close()

	var b strings.Builder
	exp.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"distjoin_otlp_exported_spans_total",
		"distjoin_otlp_dropped_queue_spans_total 0",
		"distjoin_otlp_dropped_export_spans_total 0",
		"distjoin_otlp_batches_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	var nb strings.Builder
	(*otlpexport.Exporter)(nil).WritePrometheus(&nb)
	if nb.Len() != 0 {
		t.Errorf("nil exporter wrote %q", nb.String())
	}
}
