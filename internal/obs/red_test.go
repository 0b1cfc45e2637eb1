package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func redAt(t0 time.Time) (*RED, *time.Time) {
	now := t0
	r := NewRED(REDConfig{now: func() time.Time { return now }})
	return r, &now
}

func TestREDFamilies(t *testing.T) {
	r, _ := redAt(time.Unix(1_700_000_000, 0))
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
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Error classes are the 4xx/5xx request counts, and quantiles are read
	// from the duration buckets: neither is printed a second time.
	for _, gone := range []string{"distjoin_http_errors_total", "_quantiles_seconds"} {
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

func TestREDBurnRate(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	r, now := redAt(t0)
	// 10 good pulls and 10 bad ones (slow): bad fraction 0.5, objective
	// 0.95 → burn rate 0.5/0.05 = 10 on both windows.
	for i := 0; i < 10; i++ {
		r.Observe("next", 200, time.Millisecond, "q")
		r.Observe("next", 200, time.Second, "q") // over the 250ms target
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, window := range []string{"5m", "1h"} {
		got := sampleValue(t, b.String(), `distjoin_slo_burn_rate{window="`+window+`"}`)
		if got < 9.99 || got > 10.01 {
			t.Errorf("burn rate[%s] = %g, want ~10:\n%s", window, got, grepLines(b.String(), "slo_"))
		}
	}

	// 5xx counts as bad regardless of latency.
	r2, _ := redAt(t0)
	r2.Observe("next", 503, time.Millisecond, "q")
	var b2 strings.Builder
	r2.WritePrometheus(&b2)
	if out := b2.String(); !strings.Contains(out, `distjoin_slo_requests{window="5m",outcome="bad"} 1`) {
		t.Errorf("5xx not counted bad:\n%s", grepLines(out, "slo_requests"))
	}

	// Only the SLO endpoint feeds the windows.
	r3, _ := redAt(t0)
	r3.Observe("query", 200, time.Second, "q")
	var b3 strings.Builder
	r3.WritePrometheus(&b3)
	if out := b3.String(); !strings.Contains(out, `distjoin_slo_requests{window="5m",outcome="good"} 0`) ||
		!strings.Contains(out, `distjoin_slo_requests{window="5m",outcome="bad"} 0`) {
		t.Errorf("non-SLO endpoint fed the window:\n%s", grepLines(out, "slo_requests"))
	}

	// Sliding expiry: events age out once the window passes them.
	*now = t0.Add(6 * time.Minute)
	var b4 strings.Builder
	r.WritePrometheus(&b4)
	if out := b4.String(); !strings.Contains(out, `distjoin_slo_requests{window="5m",outcome="bad"} 0`) {
		t.Errorf("5m window did not expire after 6m:\n%s", grepLines(out, "slo_requests"))
	}
	if out := b4.String(); !strings.Contains(out, `distjoin_slo_requests{window="1h",outcome="bad"} 10`) {
		t.Errorf("1h window lost events at 6m:\n%s", grepLines(out, "slo_requests"))
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

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestStatusClass(t *testing.T) {
	for in, want := range map[int]string{200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 503: "5xx", 99: "other", 700: "other", 0: "other"} {
		if got := statusClass(in); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestHistBucketOfMatchesHistogram(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 500, time.Microsecond, time.Millisecond, 250 * time.Millisecond, time.Hour} {
		var h Histogram
		h.Observe(d)
		b := histBucketOf(d)
		if h.buckets[b].Load() != 1 {
			t.Errorf("histBucketOf(%v) = %d, but Histogram.Observe used a different bucket", d, b)
		}
		if b > 0 {
			// The exemplar's le label must be a bound the histogram also emits.
			if _, err := strconv.ParseFloat(strconv.FormatFloat(bucketUpper(b), 'g', -1, 64), 64); err != nil {
				t.Errorf("bucketUpper(%d) not a float: %v", b, err)
			}
		}
	}
}
