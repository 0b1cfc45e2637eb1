package obs_test // external: the daemon's exposition includes internal/server's families, and server imports obs

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"distjoin/internal/obs"
	"distjoin/internal/qtrace"
	"distjoin/internal/server"
	"distjoin/internal/stats"
)

// TestPrometheusExpositionLint runs the full /metrics output — recorder
// (its counter families printing from its counts), the active-query gauge,
// build info, the RED/SLO extras and the server's cursor-table and in-flight
// saturation gauges — through a text-format linter (per-query numbers are
// no longer exposition families; TestPerQueryNumbersLiveInDebugQueries
// covers their /debug/queries home): every line parses, HELP/TYPE precede
// their samples, no family is declared twice, counters end in _total, and
// histograms are cumulative with consistent _count/_sum series. This is the
// contract a real Prometheus scraper enforces. Every work count of the
// recorder holds a distinct value, and each value may appear in one sample
// at most: the exposition prints every number once.
func TestPrometheusExpositionLint(t *testing.T) {
	rec := obs.New(obs.Config{})
	rec.Emit(0.25, 3, 50*time.Microsecond, -1)
	rec.Emit(0.50, 2, 20*time.Microsecond, 20*time.Microsecond)
	var c stats.Counters
	fields := reflect.ValueOf(&c).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).SetInt(int64(1000 + i))
	}
	rec.Counts().Merge(&c)
	qt := qtrace.New(qtrace.Config{})
	q := qt.Begin("join", "lint-q")
	q.Finish(qtrace.Report{}, nil)
	red := obs.NewRED()
	red.Observe("next", 200, 12*time.Millisecond, "lint-q")
	red.Observe("query", 429, time.Millisecond, "")
	srv := server.NewServer(server.Config{})
	defer srv.Close()

	var b strings.Builder
	obs.WriteMetricsTraced(&b, rec, qt, red.WritePrometheus, srv.WritePrometheus)
	lintExposition(t, b.String())
	for _, family := range []string{"distjoind_cursors_open", "distjoind_cursors_max", "distjoind_pulls_inflight", "distjoind_pulls_inflight_max"} {
		if !strings.Contains(b.String(), "\n"+family+" ") {
			t.Errorf("exposition has no %s sample", family)
		}
	}
	samples := map[float64][]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if m := sampleRe.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[5], 64); err == nil {
				samples[v] = append(samples[v], m[1])
			}
		}
	}
	for i := 0; i < fields.NumField(); i++ {
		if in := samples[float64(1000+i)]; len(in) > 1 {
			t.Errorf("Counters.%s is printed by %d samples %v, want at most one", fields.Type().Field(i).Name, len(in), in)
		}
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)?\})? (\S+)( \d+)?$`)
)

// lintExposition validates s as Prometheus text exposition format v0.0.4.
func lintExposition(t *testing.T, s string) {
	t.Helper()
	types := map[string]string{}    // family → declared type
	helped := map[string]bool{}     // family → HELP seen
	sampleSeen := map[string]bool{} // family → any sample emitted yet
	var current string              // family of the most recent TYPE line

	// histogram bookkeeping per labeled series
	bucketCum := map[string]float64{}
	bucketInf := map[string]float64{}
	counts := map[string]float64{}

	for i, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		lineno := i + 1
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if helped[m[1]] {
				t.Errorf("line %d: duplicate HELP for %s", lineno, m[1])
			}
			helped[m[1]] = true
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			name := m[1]
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", lineno, name)
			}
			if sampleSeen[name] {
				t.Errorf("line %d: TYPE for %s after its samples", lineno, name)
			}
			types[name] = m[2]
			current = name
			if m[2] == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("line %d: counter %s does not end in _total", lineno, name)
			}
			if m[2] == "histogram" && !strings.HasSuffix(name, "_seconds") {
				t.Errorf("line %d: histogram %s does not end in its unit (_seconds)", lineno, name)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unparseable comment %q", lineno, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample %q", lineno, line)
			continue
		}
		name, labels, valStr := m[1], m[3], m[5]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: value %q: %v", lineno, valStr, err)
			continue
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("line %d: sample %s precedes its TYPE", lineno, name)
			continue
		}
		if family != current {
			// All of a family's samples must be contiguous, directly after
			// its header — interleaving confuses scrapers.
			t.Errorf("line %d: sample of %s interleaved inside family %s", lineno, family, current)
		}
		sampleSeen[family] = true
		if types[family] == "counter" && val < 0 {
			t.Errorf("line %d: counter %s is negative: %g", lineno, name, val)
		}
		if types[family] == "histogram" {
			series := family + "{" + stripLabel(labels, "le") + "}"
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le := labelValue(labels, "le"); le == "+Inf" {
					bucketInf[series] = val
				} else if val < bucketCum[series] {
					t.Errorf("line %d: histogram %s buckets not cumulative", lineno, series)
				} else {
					bucketCum[series] = val
				}
			case strings.HasSuffix(name, "_count"):
				counts[series] = val
			}
		}
	}
	for series, inf := range bucketInf {
		if cum := bucketCum[series]; cum > inf {
			t.Errorf("histogram %s: le=+Inf (%g) below a finite bucket (%g)", series, inf, cum)
		}
		if cnt, ok := counts[series]; ok && cnt != inf {
			t.Errorf("histogram %s: _count %g != le=+Inf bucket %g", series, cnt, inf)
		}
	}
	for name := range types {
		if !helped[name] {
			t.Errorf("family %s has TYPE but no HELP", name)
		}
	}
}

// labelValue extracts one label's value from a rendered label body.
func labelValue(labels, key string) string {
	for _, kv := range splitLabels(labels) {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// stripLabel removes one label pair, yielding the series identity shared by
// all buckets of one histogram.
func stripLabel(labels, key string) string {
	var keep []string
	for _, kv := range splitLabels(labels) {
		if k, _, ok := strings.Cut(kv, "="); !ok || k != key {
			keep = append(keep, kv)
		}
	}
	return strings.Join(keep, ",")
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(labels string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			if i == 0 || labels[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	if start < len(labels) {
		out = append(out, labels[start:])
	}
	return out
}
