// Command loadgen drives a running distjoind with many concurrent cursor
// sessions and reports per-pull latency percentiles against an SLO. Each
// session is one resumable cursor: create, pull -pulls batches of -k
// pairs, delete. Sessions run -concurrency at a time until -sessions have
// completed; 409/429 responses (admission control doing its job) are
// retried with backoff and counted, not failed.
//
//	distjoind -demo 100000 -addr :8080 &
//	loadgen -addr localhost:8080 -sessions 200 -concurrency 16 -pulls 10 -k 100 -slo-p95 50ms
//
// The exit status is non-zero when the p95 create-or-pull latency exceeds
// -slo-p95 (0 disables the gate), so the command doubles as a CI check.
// -json emits the full report as one JSON document on stdout.
//
// -chaos turns each session hostile: pulls are randomly replaced by
// mid-stream client disconnects (slam the socket partway through an NDJSON
// stream) and by pulls under a tiny server-side deadline (?timeout_ms=1).
// Both are soft events the server must absorb — the cursor stays resumable
// and the session carries on — so chaos runs double as a cancellation
// robustness check; the report counts the injected disconnects and the
// deadline-truncated pulls. -chaos-seed makes an injection schedule
// reproducible.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"distjoin/internal/qtrace"
)

// slowPull identifies one of the slowest pulls of a run: its latency, the
// distributed-trace id it answered in, and the cursor id, whose
// /debug/queries/<cursor> document holds the session's pulls and engine
// spans under that trace id. (distjoind logs a successful pull at debug
// level only.)
type slowPull struct {
	TraceID string        `json:"trace_id"`
	Cursor  string        `json:"cursor"`
	Pull    int           `json:"pull"`
	Latency time.Duration `json:"latency_ns"`
}

// report is the machine-readable result document.
type report struct {
	Sessions    int   `json:"sessions"`
	Concurrency int   `json:"concurrency"`
	PullsPerSes int   `json:"pulls_per_session"`
	K           int   `json:"k"`
	Pairs       int64 `json:"pairs"`
	Pulls       int   `json:"pulls"`
	Failures    int64 `json:"failures"`
	Throttled   int64 `json:"throttled"`
	// Chaos counters (all zero without -chaos): injected mid-stream client
	// disconnects, and pulls the server truncated at the injected deadline.
	ChaosDisconnects int64         `json:"chaos_disconnects"`
	ChaosTimeouts    int64         `json:"chaos_timeouts"`
	Wall             time.Duration `json:"wall_ns"`
	CreateP50        time.Duration `json:"create_p50_ns"`
	CreateP95        time.Duration `json:"create_p95_ns"`
	CreateP99        time.Duration `json:"create_p99_ns"`
	PullP50          time.Duration `json:"pull_p50_ns"`
	PullP95          time.Duration `json:"pull_p95_ns"`
	PullP99          time.Duration `json:"pull_p99_ns"`
	SLOP95           time.Duration `json:"slo_p95_ns"`
	SLOMet           bool          `json:"slo_met"`
	// TraceMismatches counts responses whose traceparent echo did not carry
	// the session's trace id (0 when propagation works).
	TraceMismatches int64 `json:"trace_mismatches"`
	// SlowestPulls lists the worst pull latencies with their trace ids.
	SlowestPulls []slowPull `json:"slowest_pulls,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr        = fs.String("addr", "localhost:8080", "distjoind host:port")
		sessions    = fs.Int("sessions", 50, "total cursor sessions to run")
		concurrency = fs.Int("concurrency", 8, "sessions in flight at once")
		pulls       = fs.Int("pulls", 5, "next-pulls per session")
		k           = fs.Int("k", 50, "pairs per pull")
		sloP95      = fs.Duration("slo-p95", 0, "fail (exit 1) when p95 latency exceeds this (0 = no gate)")
		jsonOut     = fs.Bool("json", false, "print the report as JSON on stdout")
		chaos       = fs.Bool("chaos", false, "inject random mid-stream disconnects and per-pull deadlines")
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for the -chaos injection schedule")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sessions < 1 || *concurrency < 1 || *pulls < 1 || *k < 1 {
		fmt.Fprintln(errw, "loadgen: -sessions, -concurrency, -pulls and -k must be positive")
		return 2
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}

	var (
		mu                    sync.Mutex
		createLat, pullLat    []time.Duration
		pairs, failures       int64
		throttled             int64
		disconnects, timeouts int64
		traceMismatch         int64
		slowPulls             []slowPull
		wg                    sync.WaitGroup
		sem                   = make(chan struct{}, *concurrency)
	)
	record := func(lat *[]time.Duration, d time.Duration) {
		mu.Lock()
		*lat = append(*lat, d)
		mu.Unlock()
	}
	fail := func(format string, a ...any) {
		mu.Lock()
		failures++
		mu.Unlock()
		fmt.Fprintf(errw, "loadgen: "+format+"\n", a...)
	}
	// checkEcho verifies the response joined the session's distributed
	// trace: the server echoes a traceparent in the session's trace id.
	checkEcho := func(resp *http.Response, tid qtrace.TraceID) {
		sc, ok := qtrace.ParseTraceParent(resp.Header.Get("Traceparent"))
		if !ok || sc.TraceID != tid {
			mu.Lock()
			traceMismatch++
			mu.Unlock()
		}
	}

	// doRetry performs req, retrying 409/429 (admission pushback) with
	// linear backoff. Any other outcome is returned as-is.
	doRetry := func(mk func() (*http.Request, error)) (*http.Response, []byte, error) {
		for attempt := 0; ; attempt++ {
			req, err := mk()
			if err != nil {
				return nil, nil, err
			}
			resp, err := client.Do(req)
			if err != nil {
				return nil, nil, err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, nil, err
			}
			if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusConflict) && attempt < 50 {
				mu.Lock()
				throttled++
				mu.Unlock()
				time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
				continue
			}
			return resp, raw, nil
		}
	}

	start := time.Now()
	for s := 0; s < *sessions; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()

			body, _ := json.Marshal(map[string]any{
				"kind": "join", "index1": "water", "index2": "roads",
				"max_pairs": *pulls * *k,
			})
			// One client root span context per session: create and every pull
			// carry it, so the whole cursor session stitches into one trace.
			root := qtrace.SpanContext{TraceID: qtrace.NewTraceID(), SpanID: qtrace.NewSpanID(), Flags: qtrace.FlagSampled}
			tp := root.TraceParent()
			t0 := time.Now()
			resp, raw, err := doRetry(func() (*http.Request, error) {
				req, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
				if err == nil {
					req.Header.Set("traceparent", tp)
				}
				return req, err
			})
			if err != nil {
				fail("session %d create: %v", s, err)
				return
			}
			record(&createLat, time.Since(t0))
			checkEcho(resp, root.TraceID)
			if resp.StatusCode != http.StatusCreated {
				fail("session %d create: %d: %s", s, resp.StatusCode, raw)
				return
			}
			var cr struct {
				Cursor string `json:"cursor"`
			}
			if err := json.Unmarshal(raw, &cr); err != nil {
				fail("session %d create: %v", s, err)
				return
			}

			// The chaos schedule is per-session deterministic under
			// -chaos-seed, so a failing run can be replayed.
			var rng *rand.Rand
			if *chaos {
				rng = rand.New(rand.NewSource(*chaosSeed<<20 + int64(s)))
			}
			for p := 0; p < *pulls; p++ {
				pullURL := fmt.Sprintf("%s/v1/cursor/%s/next?k=%d", base, cr.Cursor, *k)
				chaosPull := false
				if rng != nil {
					switch rng.Intn(3) {
					case 1:
						// Mid-stream disconnect: open an NDJSON stream far
						// larger than one batch, read a sliver, slam the
						// socket. The server must stop engine work (the pull
						// context dies) yet keep the cursor resumable for the
						// session's next pull.
						req, err := http.NewRequest(http.MethodGet,
							fmt.Sprintf("%s/v1/cursor/%s/stream?k=%d", base, cr.Cursor, *k*100), nil)
						if err == nil {
							if resp, err := client.Do(req); err == nil {
								io.ReadFull(resp.Body, make([]byte, 512))
								resp.Body.Close()
							}
						}
						mu.Lock()
						disconnects++
						mu.Unlock()
						continue
					case 2:
						// Near-certain server-side truncation: the pull runs
						// under a 1ms deadline and returns whatever prefix it
						// managed, with the reason in the truncated field.
						pullURL += "&timeout_ms=1"
						chaosPull = true
					}
				}
				t0 := time.Now()
				resp, raw, err := doRetry(func() (*http.Request, error) {
					req, err := http.NewRequest(http.MethodGet, pullURL, nil)
					if err == nil {
						req.Header.Set("traceparent", tp)
					}
					return req, err
				})
				if err != nil {
					fail("session %d pull %d: %v", s, p, err)
					return
				}
				checkEcho(resp, root.TraceID)
				if !chaosPull {
					d := time.Since(t0)
					record(&pullLat, d)
					mu.Lock()
					slowPulls = append(slowPulls, slowPull{TraceID: root.TraceID.String(), Cursor: cr.Cursor, Pull: p, Latency: d})
					mu.Unlock()
				}
				if resp.StatusCode != http.StatusOK {
					fail("session %d pull %d: %d: %s", s, p, resp.StatusCode, raw)
					return
				}
				var nr struct {
					Pairs     []json.RawMessage `json:"pairs"`
					Done      bool              `json:"done"`
					Truncated string            `json:"truncated"`
				}
				if err := json.Unmarshal(raw, &nr); err != nil {
					fail("session %d pull %d: %v", s, p, err)
					return
				}
				mu.Lock()
				pairs += int64(len(nr.Pairs))
				if nr.Truncated != "" {
					timeouts++
				}
				mu.Unlock()
				if nr.Done {
					break
				}
			}

			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/cursor/"+cr.Cursor, nil)
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	// The worst pull latencies, with the trace ids to chase them by.
	sort.Slice(slowPulls, func(i, j int) bool { return slowPulls[i].Latency > slowPulls[j].Latency })
	if len(slowPulls) > 5 {
		slowPulls = slowPulls[:5]
	}

	rep := report{
		Sessions:         *sessions,
		Concurrency:      *concurrency,
		PullsPerSes:      *pulls,
		K:                *k,
		Pairs:            pairs,
		Pulls:            len(pullLat),
		Failures:         failures,
		Throttled:        throttled,
		ChaosDisconnects: disconnects,
		ChaosTimeouts:    timeouts,
		Wall:             wall,
		CreateP50:        percentile(createLat, 0.50),
		CreateP95:        percentile(createLat, 0.95),
		CreateP99:        percentile(createLat, 0.99),
		PullP50:          percentile(pullLat, 0.50),
		PullP95:          percentile(pullLat, 0.95),
		PullP99:          percentile(pullLat, 0.99),
		SLOP95:           *sloP95,
		TraceMismatches:  traceMismatch,
		SlowestPulls:     slowPulls,
	}
	worstP95 := rep.CreateP95
	if rep.PullP95 > worstP95 {
		worstP95 = rep.PullP95
	}
	rep.SLOMet = *sloP95 == 0 || (failures == 0 && worstP95 <= *sloP95)

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Fprintf(out, "loadgen: %d sessions × %d pulls × k=%d, concurrency %d\n",
			*sessions, *pulls, *k, *concurrency)
		fmt.Fprintf(out, "  %d pairs over %d pulls in %v (%d throttled, %d failures)\n",
			pairs, len(pullLat), wall.Round(time.Millisecond), throttled, failures)
		if *chaos {
			fmt.Fprintf(out, "  chaos   %d disconnects injected, %d pulls deadline-truncated\n",
				disconnects, timeouts)
		}
		fmt.Fprintf(out, "  create  p50 %-10v p95 %-10v p99 %v\n", rep.CreateP50, rep.CreateP95, rep.CreateP99)
		fmt.Fprintf(out, "  pull    p50 %-10v p95 %-10v p99 %v\n", rep.PullP50, rep.PullP95, rep.PullP99)
		fmt.Fprintf(out, "  trace   %d echo mismatches\n", traceMismatch)
		for _, sp := range slowPulls {
			fmt.Fprintf(out, "  slow    %-12v trace=%s cursor=%s pull=%d\n", sp.Latency, sp.TraceID, sp.Cursor, sp.Pull)
		}
	}
	if !rep.SLOMet {
		fmt.Fprintf(errw, "loadgen: SLO violated: worst p95 %v > %v (or failures)\n", worstP95, *sloP95)
		return 1
	}
	return 0
}

// percentile returns the q-th latency quantile by nearest-rank on a sorted
// copy; zero when no samples were collected.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
