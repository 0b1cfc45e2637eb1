package obs

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestREDFamilies(t *testing.T) {
	r := NewRED()
	r.Observe("next", 200, 10*time.Millisecond, "c0000001")
	r.Observe("next", 200, 20*time.Millisecond, "c0000002")
	r.Observe("next", 500, 5*time.Millisecond, "c0000003")
	r.Observe("query", 409, 1*time.Millisecond, "")

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`distjoin_http_requests_total{endpoint="next",code="2xx"} 2`,
		`distjoin_http_requests_total{endpoint="next",code="5xx"} 1`,
		`distjoin_http_requests_total{endpoint="query",code="4xx"} 1`,
		`distjoin_http_request_duration_seconds_count{endpoint="next"} 3`,
		`distjoin_slo_target_seconds 0.25`,
		`distjoin_slo_objective_ratio 0.95`,
		`distjoin_slo_bad_requests_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Error classes are the 4xx/5xx request counts, quantiles are read from
	// the duration buckets, and burn is the scraper's ratio of two counters:
	// none is printed a second time.
	for _, gone := range []string{"distjoin_http_errors_total", "_quantiles_seconds", "distjoin_slo_burn_rate", "distjoin_slo_requests{"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition restates %s:\n%s", gone, out)
		}
	}
	// The exemplar family carries the query ids, keyed by latency bucket.
	if !regexp.MustCompile(`distjoin_http_request_exemplar_seconds\{endpoint="next",le="[0-9.e-]+",query="c0000001"\}`).MatchString(out) {
		t.Errorf("no exemplar for c0000001:\n%s", out)
	}
	// The 409 had no query id: no exemplar minted for "query".
	if strings.Contains(out, `exemplar_seconds{endpoint="query"`) {
		t.Errorf("exemplar minted without a query id:\n%s", out)
	}
}

// TestREDSLOBadRequests pins the SLO counter: a "next" pull is bad when it
// is slower than the 250 ms target or answered 5xx, no other endpoint
// counts, and bad never exceeds the pulls the duration histogram counted.
func TestREDSLOBadRequests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		endpoint string
		status   int
		d        time.Duration
		bad      float64
	}{
		{"slow 2xx pull", "next", 200, time.Second, 1},
		{"fast 5xx pull", "next", 503, time.Millisecond, 1},
		{"fast 2xx pull", "next", 200, time.Millisecond, 0},
		{"pull at the target", "next", 200, 250 * time.Millisecond, 0},
		{"slow query request", "query", 200, time.Second, 0},
		{"slow 5xx query request", "query", 500, time.Second, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRED()
			r.Observe(tc.endpoint, tc.status, tc.d, "q")
			var b strings.Builder
			r.WritePrometheus(&b)
			if got := sampleValue(t, b.String(), "distjoin_slo_bad_requests_total"); got != tc.bad {
				t.Errorf("bad = %g, want %g:\n%s", got, tc.bad, b.String())
			}
		})
	}

	// Under concurrent pulls, every scrape reads bad ≤ the pull count.
	r := NewRED()
	r.Observe("next", 200, time.Millisecond, "q")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe("next", 200, time.Second, "q")
			}
		}()
	}
	scrape := func() (bad, pulls float64) {
		var b strings.Builder
		r.WritePrometheus(&b)
		return sampleValue(t, b.String(), "distjoin_slo_bad_requests_total"),
			sampleValue(t, b.String(), `distjoin_http_request_duration_seconds_count{endpoint="next"}`)
	}
	for i := 0; i < 200; i++ {
		if bad, pulls := scrape(); bad > pulls {
			t.Fatalf("scrape %d: bad %g > pulls %g", i, bad, pulls)
		}
	}
	wg.Wait()
	if bad, pulls := scrape(); bad != 2000 || pulls != 2001 {
		t.Errorf("after one fast and 2,000 slow pulls: bad %g, pulls %g", bad, pulls)
	}
}

// blockingWriter stands in for a scraper that stops reading: its first Write
// signals entered and every Write waits for release.
type blockingWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestREDScrapeDoesNotBlockObserve: a scrape stuck writing to its client
// must not stall the requests RED observes meanwhile.
func TestREDScrapeDoesNotBlockObserve(t *testing.T) {
	r := NewRED()
	r.Observe("next", 200, time.Millisecond, "q")
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		r.WritePrometheus(w)
		close(scraped)
	}()
	defer func() {
		close(w.release)
		<-scraped
	}()
	<-w.entered
	observed := make(chan struct{})
	go func() {
		r.Observe("next", 200, time.Millisecond, "q")
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(2 * time.Second):
		t.Fatal("Observe blocked behind a scrape stuck in Write")
	}
}

func TestREDNilSafe(t *testing.T) {
	var r *RED
	r.Observe("next", 200, time.Millisecond, "q") // must not panic
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Errorf("nil RED wrote %q", b.String())
	}
}

// sampleValue finds the sample whose name+labels prefix matches and parses
// its value.
func sampleValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, l := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(l, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(l, prefix+" "), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", l, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in exposition", prefix)
	return 0
}

func TestStatusClass(t *testing.T) {
	for in, want := range map[int]string{200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 503: "5xx", 99: "other", 700: "other", 0: "other"} {
		if got := statusClass(in); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", in, got, want)
		}
	}
}
