package obs

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RED aggregates the three golden signals — Rate, Errors, Duration — per
// HTTP endpoint of the query service (errors are the 4xx and 5xx classes of
// the request counts), plus one counter grading the pull-latency SLO. One
// RED instance backs the whole server; Observe is called once per finished
// request by the server's middleware and WritePrometheus joins the /metrics
// exposition through the extras hook of WriteMetricsTraced.
//
// The SLO is 95 % of "next" pulls answered non-5xx within 250 ms. RED counts
// the pulls that miss it in distjoin_slo_bad_requests_total and leaves the
// window to the scraper: the burn rate over a window w is
//
//	rate(distjoin_slo_bad_requests_total[w])
//	  / rate(distjoin_http_request_duration_seconds_count{endpoint="next"}[w])
//	  / (1 - 0.95)
//
// Exemplars: each latency observation carries the query (or cursor) id it
// served. The most recent id per (endpoint, latency bucket) is retained and
// exposed as a separate labeled gauge family — the classic text exposition
// format has no native exemplar syntax, so the link from a histogram bucket
// to a concrete flight-recorder trace travels in its own family instead.
//
// A nil *RED is valid and inert everywhere, matching the repo-wide nil-safe
// observability convention.
type RED struct {
	mu  sync.Mutex
	eps map[string]*redEndpoint
	bad atomic.Int64 // sloEndpoint requests slower than sloTarget or 5xx
}

// redEndpoint is one endpoint's RED state. Guarded by RED.mu except the
// histogram, which is internally atomic.
type redEndpoint struct {
	codes     map[string]int64 // status class ("2xx".."5xx") → requests
	dur       *Histogram
	exemplars map[int]redExemplar // histogram bucket → latest exemplar
}

// redExemplar links one latency bucket to the query trace that landed there
// most recently.
type redExemplar struct {
	query   string
	seconds float64
}

// The SLO: sloObjective of the sloEndpoint requests answer non-5xx within
// sloTarget.
const (
	sloTarget    = 250 * time.Millisecond
	sloObjective = 0.95
	sloEndpoint  = "next"
)

// NewRED returns an empty collector.
func NewRED() *RED {
	return &RED{eps: make(map[string]*redEndpoint)}
}

// Observe records one finished request: its endpoint (a low-cardinality
// route name, not the raw path), final HTTP status, wall duration, and the
// query/cursor id it served (empty when none — e.g. index listings).
func (r *RED) Observe(endpoint string, status int, d time.Duration, query string) {
	if r == nil {
		return
	}
	d = max(d, 0)
	class := statusClass(status)
	r.mu.Lock()
	ep := r.eps[endpoint]
	if ep == nil {
		ep = &redEndpoint{codes: make(map[string]int64), dur: new(Histogram), exemplars: make(map[int]redExemplar)}
		r.eps[endpoint] = ep
	}
	ep.codes[class]++
	if query != "" {
		ep.exemplars[histBucketOf(d)] = redExemplar{query: query, seconds: d.Seconds()}
	}
	r.mu.Unlock()
	// The histogram counts a request before the SLO counter may; a scrape
	// reads bad before the count, so it never shows more bad than pulls.
	ep.dur.Observe(d)
	if endpoint == sloEndpoint && (status >= 500 || d > sloTarget) {
		r.bad.Add(1)
	}
}

// statusClass buckets an HTTP status into its hundred ("2xx".."5xx").
// Out-of-range codes land in "other" rather than minting label values.
func statusClass(status int) string {
	if status >= 100 && status <= 599 {
		return strconv.Itoa(status/100) + "xx"
	}
	return "other"
}

// WritePrometheus emits the RED and SLO families in text exposition format.
// Its signature matches the extras hook of WriteMetricsTraced. The request
// counts and exemplars are copied under RED.mu and written after it is
// released, so a slow scraper never stalls Observe.
func (r *RED) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	eps := make(map[string]redEndpoint, len(r.eps))
	for name, ep := range r.eps {
		eps[name] = redEndpoint{codes: maps.Clone(ep.codes), dur: ep.dur, exemplars: maps.Clone(ep.exemplars)}
	}
	bad := r.bad.Load()
	r.mu.Unlock()
	names := sortedKeys(eps)

	writeHeader(w, "distjoin_http_requests_total", "counter", "Requests served, by endpoint and status class.")
	for _, name := range names {
		codes := eps[name].codes
		for _, class := range sortedKeys(codes) {
			fmt.Fprintf(w, "distjoin_http_requests_total{endpoint=%q,code=%q} %d\n", name, class, codes[class])
		}
	}

	writeHeader(w, "distjoin_http_request_duration_seconds", "histogram", "Wall duration of served requests, by endpoint.")
	for _, name := range names {
		writeHistogram(w, "distjoin_http_request_duration_seconds", fmt.Sprintf("endpoint=%q", name), eps[name].dur)
	}

	// Exemplars: which query trace last landed in each latency bucket.
	// /debug/queries/<query> resolves the id to its full span tree.
	writeHeader(w, "distjoin_http_request_exemplar_seconds", "gauge", "Latest request duration per latency bucket, labeled with the query trace that produced it.")
	for _, name := range names {
		exemplars := eps[name].exemplars
		for _, b := range sortedKeys(exemplars) {
			ex := exemplars[b]
			fmt.Fprintf(w, "distjoin_http_request_exemplar_seconds{endpoint=%q,le=%q,query=%q} %g\n",
				name, strconv.FormatFloat(bucketUpper(b), 'g', -1, 64), ex.query, ex.seconds)
		}
	}

	writeGauge(w, "distjoin_slo_target_seconds", "Latency target a request must beat to count as good for the SLO.", sloTarget.Seconds())
	writeGauge(w, "distjoin_slo_objective_ratio", "Fraction of SLO-endpoint requests that must be good.", sloObjective)
	writeCounter(w, "distjoin_slo_bad_requests_total", "SLO-endpoint (next) requests slower than the SLO target or answered 5xx.", bad)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
