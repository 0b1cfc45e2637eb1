package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"time"
)

// RED aggregates the three golden signals — Rate, Errors, Duration — per
// HTTP endpoint of the query service (errors are the 4xx and 5xx classes of
// the request counts), plus multi-window SLO burn rates for
// the latency objective on the pull path. One RED instance backs the whole
// server; Observe is called once per finished request by the server's
// middleware and WritePrometheus joins the /metrics exposition through the
// extras hook of WriteMetricsTraced.
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
	target      time.Duration
	objective   float64
	sloEndpoint string
	now         func() time.Time

	mu      sync.Mutex
	eps     map[string]*redEndpoint
	windows []*burnWindow
}

// redEndpoint is one endpoint's RED state. Guarded by RED.mu except the
// histogram, which is internally atomic.
type redEndpoint struct {
	codes     map[string]int64 // status class ("2xx".."5xx") → requests
	dur       Histogram
	exemplars map[int]redExemplar // log2 latency bucket → latest exemplar
}

// redExemplar links one latency bucket to the query trace that landed there
// most recently.
type redExemplar struct {
	query   string
	seconds float64
}

// REDConfig configures NewRED. The zero value yields the service defaults:
// a p95 ≤ 250ms objective (objective 0.95, target 250ms) on the "next"
// endpoint, burn windows of 5m and 1h.
type REDConfig struct {
	// SLOTarget is the latency threshold a request must beat to count as
	// good for the SLO. Default 250ms.
	SLOTarget time.Duration
	// SLOObjective is the fraction of SLO-endpoint requests that must be
	// good (fast and non-5xx). Default 0.95.
	SLOObjective float64
	// SLOEndpoint names the endpoint the SLO applies to. Default "next"
	// (the cursor pull path).
	SLOEndpoint string

	now func() time.Time // test hook; nil = time.Now
}

// Default SLO parameters: 95% of cursor pulls complete within 250ms.
const (
	DefaultSLOTarget    = 250 * time.Millisecond
	DefaultSLOObjective = 0.95
	DefaultSLOEndpoint  = "next"
)

// NewRED returns a collector with the configured (or default) SLO.
func NewRED(cfg REDConfig) *RED {
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = DefaultSLOTarget
	}
	if cfg.SLOObjective <= 0 || cfg.SLOObjective >= 1 {
		cfg.SLOObjective = DefaultSLOObjective
	}
	if cfg.SLOEndpoint == "" {
		cfg.SLOEndpoint = DefaultSLOEndpoint
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &RED{
		target:      cfg.SLOTarget,
		objective:   cfg.SLOObjective,
		sloEndpoint: cfg.SLOEndpoint,
		now:         cfg.now,
		eps:         make(map[string]*redEndpoint),
		// Fast/slow burn windows, the standard multi-window pairing: the
		// fast window catches a sudden total outage, the slow one a steady
		// trickle of slow pulls.
		windows: []*burnWindow{
			newBurnWindow("5m", 5*time.Minute, 20),
			newBurnWindow("1h", time.Hour, 60),
		},
	}
}

// Observe records one finished request: its endpoint (a low-cardinality
// route name, not the raw path), final HTTP status, wall duration, and the
// query/cursor id it served (empty when none — e.g. index listings).
func (r *RED) Observe(endpoint string, status int, d time.Duration, query string) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	class := statusClass(status)
	r.mu.Lock()
	ep := r.eps[endpoint]
	if ep == nil {
		ep = &redEndpoint{
			codes:     make(map[string]int64),
			exemplars: make(map[int]redExemplar),
		}
		r.eps[endpoint] = ep
	}
	ep.codes[class]++
	if query != "" {
		ep.exemplars[histBucketOf(d)] = redExemplar{query: query, seconds: d.Seconds()}
	}
	if endpoint == r.sloEndpoint {
		bad := status >= 500 || d > r.target
		now := r.now()
		for _, bw := range r.windows {
			bw.add(now, bad)
		}
	}
	r.mu.Unlock()
	ep.dur.Observe(d)
}

// statusClass buckets an HTTP status into its hundred ("2xx".."5xx").
// Out-of-range codes land in "other" rather than minting label values.
func statusClass(status int) string {
	if status >= 100 && status <= 599 {
		return strconv.Itoa(status/100) + "xx"
	}
	return "other"
}

// histBucketOf mirrors Histogram.Observe's bucket assignment so exemplars
// line up with the histogram's le bounds.
func histBucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	return bits.Len64(uint64(ns))
}

// WritePrometheus emits the RED and SLO families in text exposition format.
// Its signature matches the extras hook of WriteMetricsTraced.
func (r *RED) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.eps))
	for name := range r.eps {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP distjoin_http_requests_total Requests served, by endpoint and status class.\n# TYPE distjoin_http_requests_total counter\n")
	for _, name := range names {
		ep := r.eps[name]
		for _, class := range sortedKeys(ep.codes) {
			fmt.Fprintf(w, "distjoin_http_requests_total{endpoint=%q,code=%q} %d\n", name, class, ep.codes[class])
		}
	}

	fmt.Fprintf(w, "# HELP distjoin_http_request_duration_seconds Wall duration of served requests, by endpoint.\n# TYPE distjoin_http_request_duration_seconds histogram\n")
	for _, name := range names {
		writeLabeledHistogram(w, "distjoin_http_request_duration_seconds", "endpoint", name, &r.eps[name].dur)
	}

	// Exemplars: which query trace last landed in each latency bucket.
	// /debug/queries/<query> resolves the id to its full span tree.
	fmt.Fprintf(w, "# HELP distjoin_http_request_exemplar_seconds Latest request duration per latency bucket, labeled with the query trace that produced it.\n# TYPE distjoin_http_request_exemplar_seconds gauge\n")
	for _, name := range names {
		ep := r.eps[name]
		buckets := make([]int, 0, len(ep.exemplars))
		for b := range ep.exemplars {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		for _, b := range buckets {
			ex := ep.exemplars[b]
			fmt.Fprintf(w, "distjoin_http_request_exemplar_seconds{endpoint=%q,le=%q,query=%q} %g\n",
				name, strconv.FormatFloat(bucketUpper(b), 'g', -1, 64), ex.query, ex.seconds)
		}
	}

	// SLO families: the objective's parameters plus its burn rate over each
	// window. Burn rate 1.0 = consuming error budget exactly at the rate
	// that exhausts it at the window's end; >1 = faster.
	writeGauge(w, "distjoin_slo_target_seconds", "Latency target a request must beat to count as good for the SLO.", r.target.Seconds())
	writeGauge(w, "distjoin_slo_objective_ratio", "Fraction of SLO-endpoint requests that must be good.", r.objective)
	now := r.now()
	fmt.Fprintf(w, "# HELP distjoin_slo_requests Requests observed in each sliding SLO window.\n# TYPE distjoin_slo_requests gauge\n")
	for _, bw := range r.windows {
		good, bad := bw.totals(now)
		fmt.Fprintf(w, "distjoin_slo_requests{window=%q,outcome=\"good\"} %d\n", bw.name, good)
		fmt.Fprintf(w, "distjoin_slo_requests{window=%q,outcome=\"bad\"} %d\n", bw.name, bad)
	}
	fmt.Fprintf(w, "# HELP distjoin_slo_burn_rate Error-budget burn rate per sliding window: bad fraction over the allowed fraction (1 = budget exhausts exactly at the window's end).\n# TYPE distjoin_slo_burn_rate gauge\n")
	for _, bw := range r.windows {
		good, bad := bw.totals(now)
		burn := 0.0
		if total := good + bad; total > 0 {
			burn = (float64(bad) / float64(total)) / (1 - r.objective)
		}
		fmt.Fprintf(w, "distjoin_slo_burn_rate{window=%q} %g\n", bw.name, burn)
	}
	r.mu.Unlock()
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// writeLabeledHistogram is writeHistogram with one constant label pair on
// every sample, for per-endpoint duration families. The caller writes the
// shared HELP/TYPE header once.
func writeLabeledHistogram(w io.Writer, name, label, value string, h *Histogram) {
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, strconv.FormatFloat(bucketUpper(i), 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.Count())
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.Count())
}

// burnWindow is a sliding window of good/bad counts implemented as a ring
// of time slots. Adding and totalling are O(slots); slots whose epoch has
// rotated out of the window read as empty without explicit expiry.
type burnWindow struct {
	name  string
	slotD time.Duration
	slots []burnSlot
}

type burnSlot struct {
	epoch     int64 // slot index since the unix epoch; 0 = never used
	good, bad int64
}

func newBurnWindow(name string, width time.Duration, slots int) *burnWindow {
	return &burnWindow{name: name, slotD: width / time.Duration(slots), slots: make([]burnSlot, slots)}
}

// add records one observation at time now. Caller holds RED.mu.
func (b *burnWindow) add(now time.Time, bad bool) {
	epoch := now.UnixNano() / int64(b.slotD)
	s := &b.slots[int(epoch)%len(b.slots)]
	if s.epoch != epoch {
		*s = burnSlot{epoch: epoch}
	}
	if bad {
		s.bad++
	} else {
		s.good++
	}
}

// totals sums the slots still inside the window ending at now. Caller holds
// RED.mu.
func (b *burnWindow) totals(now time.Time) (good, bad int64) {
	epoch := now.UnixNano() / int64(b.slotD)
	oldest := epoch - int64(len(b.slots)) + 1
	for i := range b.slots {
		if s := &b.slots[i]; s.epoch >= oldest && s.epoch <= epoch {
			good += s.good
			bad += s.bad
		}
	}
	return good, bad
}
