package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"distjoin"
	"distjoin/internal/server"
)

// servedWorkload drives the real distjoind binary over loopback HTTP with
// closed-loop clients: each client sends its next request only when the
// previous one has been answered. cmd/loadgen is not reused: it folds first
// pulls into pull latency and retries refusals, and it is a command, not a
// package.
var servedWorkload = struct{ name, scale, why string }{
	name:  "served-pulls",
	scale: "small",
	why:   "interactive next-20 pulls through distjoind on a shared index: HTTP, cursor table, JSON, pool lock and default telemetry dominate",
}

// servedClients is the number of closed-loop clients: two cursors share one
// index, which is what contends for the pool lock — but never more clients
// than CPUs, or the load generator would compete with itself.
func servedClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// maxSessions bounds the sessions one client runs, so sample buffers can be
// allocated before timing starts.
const maxSessions = 2_000

// daemon is one running distjoind child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logPath string
	waitErr error         // what cmd.Wait returned; read after exited is closed
	exited  chan struct{} // closed once the child has been waited for
}

var addrInLog = regexp.MustCompile(`addr=(127\.0\.0\.1:\d+)`)

// indexName names a sample's index in the daemon's registry, and its CSV
// file.
func indexName(layer string, sample int) string { return layer + strconv.Itoa(sample) }

// startDaemon executes distjoind on an ephemeral loopback port with its
// default flags and every sample's two CSV inputs, its stderr going to a
// file in dir, and returns once /readyz answers 200, with the time that
// took.
func startDaemon(bin, dir, tag string) (*daemon, time.Duration, error) {
	d := &daemon{logPath: filepath.Join(dir, "distjoind-"+tag+".log"), exited: make(chan struct{})}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := []string{"-addr", "127.0.0.1:0"}
	for i := 0; i < numSamples; i++ {
		for _, layer := range []string{"water", "roads"} {
			name := indexName(layer, i)
			args = append(args, "-csv", name+"="+filepath.Join(dir, name+".csv"))
		}
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = logFile
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	// A benchmark that is told to end takes its daemon with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		select {
		case <-sig:
			d.cmd.Process.Kill()
			<-d.exited
			os.Exit(1)
		case <-d.exited:
			signal.Stop(sig)
		}
	}()

	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			log, _ := os.ReadFile(d.logPath)
			return nil, 0, fmt.Errorf("distjoind exited during start-up (%v): %s", d.waitErr, log)
		default:
		}
		if d.base == "" {
			log, err := os.ReadFile(d.logPath)
			if err != nil {
				d.stop()
				return nil, 0, err
			}
			if m := addrInLog.FindSubmatch(log); m != nil {
				d.base = "http://" + string(m[1])
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("distjoind was not ready within 60 s")
}

// stop drains the daemon with SIGTERM and waits until it has exited,
// killing it if the drain outlasts its window.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// memStats is the part of the daemon's runtime.MemStats the benchmark
// reads, from the comment block /debug/pprof/heap?debug=1 ends with — an
// endpoint the daemon already serves. gc=1 makes it collect first.
type memStats struct {
	Mallocs, TotalAlloc, HeapAlloc, NumGC float64
	GCCPUFraction                         float64
}

var memStatLine = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc|HeapAlloc|NumGC|GCCPUFraction) = (\S+)$`)

func (d *daemon) memStats(gc bool) (memStats, error) {
	url := d.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, match := range memStatLine.FindAllSubmatch(body, -1) {
		v, err := strconv.ParseFloat(string(match[2]), 64)
		if err != nil {
			return memStats{}, fmt.Errorf("parsing daemon MemStats %q: %w", match[0], err)
		}
		found++
		switch string(match[1]) {
		case "Mallocs":
			m.Mallocs = v
		case "TotalAlloc":
			m.TotalAlloc = v
		case "HeapAlloc":
			m.HeapAlloc = v
		case "NumGC":
			m.NumGC = v
		case "GCCPUFraction":
			m.GCCPUFraction = v
		}
	}
	if found != 5 {
		return memStats{}, fmt.Errorf("daemon heap profile carries %d of 5 MemStats fields", found)
	}
	return m, nil
}

// session is what one create / first pull / pulls… / delete cycle measured.
type session struct {
	sample int
	create time.Duration
	first  time.Duration // POST sent → first pair held: the served time to first pair
	del    time.Duration
	wall   time.Duration
	end    time.Time // when the last pair was held
	pairs  int
	sum    digest

	requests int
	refused  int // 409 and 429 answers; not retried, counted as failed
	failed   int // refused, failed or incorrect requests
	why      string
}

// client is one closed-loop caller with its preallocated sample buffers.
type client struct {
	http     *http.Client
	base     string
	sessions []session
	pulls    []uint32    // ns per pull of pullK pairs, first pulls excluded
	spans    []spanTable // per session, when tracing
	trace    bool
}

func newClient(base string, hc *http.Client, pullsPerSession int, trace bool) *client {
	return &client{
		http:     hc,
		base:     base,
		sessions: make([]session, 0, maxSessions),
		pulls:    make([]uint32, 0, maxSessions*pullsPerSession),
		trace:    trace,
	}
}

// call sends one request and decodes a 2xx JSON answer into out.
func (c *client) call(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// joinRequest is the POST /v1/query body of a join over one sample.
func joinRequest(sample int) []byte {
	return []byte(fmt.Sprintf(`{"kind":"join","index1":%q,"index2":%q}`,
		indexName("water", sample), indexName("roads", sample)))
}

// runSession runs one session of 1 + pulls·pullK pairs over one sample and
// appends its measurements to the client's buffers.
func (c *client) runSession(pulls, sample int) {
	s := session{sample: sample, sum: fnvOffset}
	var spans spanTable
	body := joinRequest(sample)
	last := math.Inf(-1)
	// take checks one pull's pairs: exactly k of them, the cursor not done,
	// and distance never decreasing — within the pull and across pulls.
	take := func(resp *server.NextResponse, k int) error {
		if len(resp.Pairs) != k || resp.Done {
			return fmt.Errorf("pull returned %d pairs (done=%v), want %d", len(resp.Pairs), resp.Done, k)
		}
		for _, p := range resp.Pairs {
			if p.Dist < last {
				return fmt.Errorf("distance %v after %v", p.Dist, last)
			}
			last = p.Dist
			s.sum = s.sum.add(p.Dist)
		}
		s.pairs += k
		return nil
	}
	// fail counts a failed request and ends the session.
	fail := func(status int, err error) {
		s.failed++
		if status == http.StatusConflict || status == http.StatusTooManyRequests {
			s.refused++
		}
		s.why = err.Error()
	}

	start := time.Now()
	var created server.CreateResponse
	s.requests++
	status, err := c.call(http.MethodPost, c.base+"/v1/query", body, &created)
	s.create = time.Since(start)
	spans.add(spCreate, spQuery, s.create, 1)
	if err != nil {
		fail(status, err)
		c.finishSession(s, spans, start)
		return
	}
	cursor := c.base + "/v1/cursor/" + created.Cursor
	var resp server.NextResponse

	pullStart := time.Now()
	s.requests++
	status, err = c.call(http.MethodGet, cursor+"/next?k=1", nil, &resp)
	now := time.Now()
	if err == nil {
		err = take(&resp, 1)
	}
	s.first = now.Sub(start)
	s.end = now
	spans.add(spFirstPull, spQuery, now.Sub(pullStart), 1)
	if err != nil {
		fail(status, err)
	}

	nextURL := cursor + "/next?k=" + strconv.Itoa(pullK)
	for i := 0; i < pulls && s.failed == 0; i++ {
		pullStart = time.Now()
		s.requests++
		resp.Pairs = resp.Pairs[:0]
		status, err = c.call(http.MethodGet, nextURL, nil, &resp)
		now = time.Now()
		if err == nil {
			err = take(&resp, pullK)
		}
		if err != nil {
			fail(status, err)
			break
		}
		s.end = now
		c.pulls = append(c.pulls, clampNS(now.Sub(pullStart)))
		spans.add(spPull, spQuery, now.Sub(pullStart), 1)
	}

	delStart := time.Now()
	s.requests++
	if status, err = c.call(http.MethodDelete, cursor, nil, nil); err != nil {
		fail(status, err)
	}
	s.del = time.Since(delStart)
	spans.add(spDelete, spQuery, s.del, 1)
	c.finishSession(s, spans, start)
}

func (c *client) finishSession(s session, spans spanTable, start time.Time) {
	s.wall = time.Since(start)
	spans.add(spQuery, spQuery, s.wall, 1)
	c.sessions = append(c.sessions, s)
	if c.trace {
		c.spans = append(c.spans, spans)
	}
}

// servedRig is a started daemon with everything a served run compares it
// against.
type servedRig struct {
	sc      scale
	daemon  *daemon
	setupS  float64
	http    *http.Client
	twin    *sampleSet // the daemon's points, indexed in this process
	twinQ   query      // the session's query, in-process
	twinSum []digest   // by sample: the digest of the session's pairs, in-process
}

func (r *servedRig) Close() {
	r.daemon.stop()
	r.twin.Close()
	r.http.CloseIdleConnections()
}

// sessionPairs is the number of pairs one session pulls.
func sessionPairs(sc scale) int { return 1 + sc.pulls*pullK }

// setUpServed draws the samples, indexes them in this process (the twin
// the served output is checked against), writes them out as the daemon's
// inputs, and starts the daemon numSamples times, keeping the last.
func setUpServed(cfg config, sc scale, tmp string, res *result, host *hostClock) (*servedRig, error) {
	if cfg.distjoind == "" {
		return nil, errors.New("served-pulls needs --distjoind (benchmark/run.sh builds and passes it)")
	}
	twin, _, err := setUpInProcess(cfg.seed, sc, nil)
	if err != nil {
		return nil, err
	}
	rig := &servedRig{sc: sc, twin: twin, twinQ: query{pairs: sessionPairs(sc)}}
	twinWorkload := inProcessWorkload{query: func(sc scale, _ string) query { return query{pairs: sessionPairs(sc)} }}
	if err := checkAgainstOracle(cfg.seed, sc, twinWorkload, tmp); err != nil {
		res.fail("oracle: %v", err)
	}
	for i, on := range twin.targets(nil) {
		rep, err := rig.twinQ.run(on.a, on.b, rig.twinQ.opts, nil, nil, nil)
		if err != nil {
			twin.Close()
			return nil, err
		}
		if rep.bad > 0 || rep.pairs != rig.twinQ.pairs {
			res.fail("in-process twin delivered %d pairs (%d bad), expected %d", rep.pairs, rep.bad, rig.twinQ.pairs)
		}
		rig.twinSum = append(rig.twinSum, rep.sum)
		for layer, pts := range map[string][]distjoin.Point{"water": twin.data[i].water, "roads": twin.data[i].roads} {
			if err := writeCSV(filepath.Join(tmp, indexName(layer, i)+".csv"), pts); err != nil {
				twin.Close()
				return nil, err
			}
		}
	}

	var ready []float64
	for i := 0; i < numSamples; i++ {
		if rig.daemon != nil {
			rig.daemon.stop()
		}
		host.sample(30 * time.Millisecond)
		d, took, err := startDaemon(cfg.distjoind, tmp, strconv.Itoa(i))
		if err != nil {
			twin.Close()
			return nil, err
		}
		rig.daemon = d
		ready = append(ready, took.Seconds())
	}
	rig.setupS = median(ready)
	rig.http = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: servedClients()},
	}
	return rig, nil
}

// warmUp runs two untimed sessions, so the daemon's heap growth and the
// connection set-up are paid before timing starts.
func (r *servedRig) warmUp() {
	warm := newClient(r.daemon.base, r.http, r.sc.pulls, false)
	for i := 0; i < 2; i++ {
		warm.runSession(r.sc.pulls, i%numSamples)
	}
}

// drive runs closed-loop sessions on every client until budget is spent and
// folds their failures into res. It returns the clients with their samples
// and the wall of the slices, each from its first session's start to its
// last pair held.
func (r *servedRig) drive(res *result, budget time.Duration, trace bool, host *hostClock) ([]*client, time.Duration) {
	clients := make([]*client, servedClients())
	for i := range clients {
		clients[i] = newClient(r.daemon.base, r.http, r.sc.pulls, trace)
	}
	// The budget is cut into one slice per sample, and the clients move
	// through the samples together, so their cursors always share one index
	// — and its pool lock. The host clock ticks between slices, while no
	// request is in flight; the wall returned leaves those pauses out.
	slice := budget / numSamples
	var wall time.Duration
	for sample := 0; sample < numSamples; sample++ {
		host.sample(30 * time.Millisecond)
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for n := 0; n < maxSessions/numSamples && (n == 0 || time.Since(start) < slice); n++ {
					c.runSession(r.sc.pulls, sample)
				}
			}(c)
		}
		wg.Wait()
		end := start
		for _, c := range clients {
			if last := c.sessions[len(c.sessions)-1].end; last.After(end) {
				end = last
			}
		}
		wall += end.Sub(start)
	}
	host.sample(30 * time.Millisecond)
	for _, c := range clients {
		for i, s := range c.sessions {
			res.Attempted += int64(s.requests)
			res.Failed += int64(s.failed)
			if s.failed > 0 {
				res.fail("session %d: %s", i, s.why)
			} else if s.sum != r.twinSum[s.sample] {
				// One failed operation: the session's output as a whole.
				res.Failed++
				res.fail("session %d: distance digest differs from the in-process digest of the same query", i)
			}
		}
	}
	return clients, wall
}

func countSessions(clients []*client) int {
	n := 0
	for _, c := range clients {
		n += len(c.sessions)
	}
	return n
}

func sessionColumn(clients []*client, f func(session) float64) []float64 {
	var out []float64
	for _, c := range clients {
		for _, s := range c.sessions {
			out = append(out, f(s))
		}
	}
	return out
}

func pooledPulls(clients []*client) []uint32 {
	var out []uint32
	for _, c := range clients {
		out = append(out, c.pulls...)
	}
	return out
}

// runServed is the untraced run of served-pulls.
func runServed(cfg config, sc scale, tmp string) (*result, error) {
	res := newResult()
	host := newHostClock()
	rig, err := setUpServed(cfg, sc, tmp, res, host)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	res.setScaled("setup_s", rig.setupS, host.factor(),
		"median of %d daemon starts to /readyz, %d samples of water %d × roads %d", numSamples, numSamples, sc.water, sc.roads)
	host.reset()

	live, queued, err := rig.liveBytesPerQueuedPair()
	if err != nil {
		return nil, err
	}
	res.set("live_bytes_per_queued_pair", live)
	res.note("live_bytes_per_queued_pair", "daemon heap over the %d pairs the same query queues in-process", queued)

	rig.warmUp()
	before, err := rig.daemon.memStats(false)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := procCPUSeconds(rig.daemon.pid())
	if err != nil {
		return nil, err
	}
	clients, wall := rig.drive(res, time.Duration(cfg.seconds*float64(time.Second)), false, host)
	cpuAfter, err := procCPUSeconds(rig.daemon.pid())
	if err != nil {
		return nil, err
	}
	after, err := rig.daemon.memStats(false)
	if err != nil {
		return nil, err
	}

	first := sessionColumn(clients, func(s session) float64 { return s.first.Seconds() * 1e3 })
	var pairs float64
	for _, p := range sessionColumn(clients, func(s session) float64 { return float64(s.pairs) }) {
		pairs += p
	}
	sessions := float64(len(first))
	f := host.factor()
	res.setScaled("ttfp_ms", median(first), f, "median of %d sessions, %d clients", len(first), len(clients))
	res.setScaled("pairs_per_s", pairs/wall.Seconds(), 1/f, "%d sessions of %d pairs", len(first), sessionPairs(sc))
	delayPercentiles(res, pooledPulls(clients), "", "delay_p99_us", 0.99, f)
	res.set("allocs_per_query", (after.Mallocs-before.Mallocs)/sessions)
	res.set("alloc_mb_per_query", (after.TotalAlloc-before.TotalAlloc)/sessions/1e6)
	res.setScaled("cpu_s_per_query", (cpuAfter-cpuBefore)/sessions, f, "the daemon's, %d sessions", len(first))
	rss, err := peakRSSMB(rig.daemon.pid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	res.finish(endToEnd, true)
	return res, nil
}

// liveBytesPerQueuedPair divides the heap one open cursor holds in the
// daemon after its first pair (on the first sample) by the length of that
// query's queue. The
// daemon does not export a queue length per cursor; the in-process twin runs
// the same engine on the same points, so its queue is the same length.
func (r *servedRig) liveBytesPerQueuedPair() (bytesPerPair float64, queued int, err error) {
	on := r.twin.targets(nil)[0]
	it, err := r.twinQ.open(on.a, on.b, r.twinQ.opts)
	if err != nil {
		return 0, 0, err
	}
	_, _, err = it.Next()
	queued = it.QueueLen()
	it.Close()
	if err != nil {
		return 0, 0, err
	}
	if queued == 0 {
		return 0, 0, errors.New("queue is empty after the first pair")
	}

	c := newClient(r.daemon.base, r.http, 0, false)
	before, err := r.daemon.memStats(true)
	if err != nil {
		return 0, 0, err
	}
	var created server.CreateResponse
	if _, err := c.call(http.MethodPost, c.base+"/v1/query", joinRequest(0), &created); err != nil {
		return 0, 0, err
	}
	cursor := c.base + "/v1/cursor/" + created.Cursor
	if _, err := c.call(http.MethodGet, cursor+"/next?k=1", nil, nil); err != nil {
		return 0, 0, err
	}
	after, err := r.daemon.memStats(true)
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.call(http.MethodDelete, cursor, nil, nil); err != nil {
		return 0, 0, err
	}
	return (after.HeapAlloc - before.HeapAlloc) / float64(queued), queued, nil
}

// traceServed is the traced run of served-pulls: reference sessions, then
// sessions with client-side spans and the daemon's CPU, log and GC
// accounting, then the session's query in-process under the wrappers — the
// engine-side rows of a served pull — and the micro rows.
func traceServed(cfg config, sc scale, tmp string) (*result, error) {
	res := newResult()
	rig, err := setUpServed(cfg, sc, tmp, res, nil)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	budget := time.Duration(cfg.seconds / 3 * float64(time.Second))

	rig.warmUp()
	ref, _ := rig.drive(res, budget, false, nil)
	untraced := median(sessionColumn(ref, func(s session) float64 { return s.wall.Seconds() }))

	memBefore, err := rig.daemon.memStats(false)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := procCPUSeconds(rig.daemon.pid())
	if err != nil {
		return nil, err
	}
	logBefore, err := os.Stat(rig.daemon.logPath)
	if err != nil {
		return nil, err
	}
	clients, _ := rig.drive(res, budget, true, nil)
	cpuAfter, err := procCPUSeconds(rig.daemon.pid())
	if err != nil {
		return nil, err
	}
	logAfter, err := os.Stat(rig.daemon.logPath)
	if err != nil {
		return nil, err
	}
	memAfter, err := rig.daemon.memStats(false)
	if err != nil {
		return nil, err
	}

	var requests, refused, pulls float64
	for ci, c := range clients {
		for si, s := range c.sessions {
			requests += float64(s.requests)
			refused += float64(s.refused)
			n := c.spans[si][spPull][spQuery].Count + c.spans[si][spFirstPull][spQuery].Count
			pulls += float64(n)
			id := fmt.Sprintf("%s/seed-%d/client-%d/session-%d", servedWorkload.name, cfg.seed, ci, si)
			res.traces = append(res.traces, c.spans[si].record(id))
		}
	}
	sessions := float64(len(res.traces))
	traced := median(sessionColumn(clients, func(s session) float64 { return s.wall.Seconds() }))
	res.set("bench.trace_overhead", traced/untraced)
	res.note("bench.trace_overhead", "median wall of %.0f traced over %d untraced sessions", sessions, countSessions(ref))
	res.set("server.create_p50_ms", median(sessionColumn(clients, func(s session) float64 { return s.create.Seconds() * 1e3 })))
	res.set("server.delete_p50_ms", median(sessionColumn(clients, func(s session) float64 { return s.del.Seconds() * 1e3 })))
	pullMS := make([]float64, 0, int(pulls))
	for _, d := range pooledPulls(clients) {
		pullMS = append(pullMS, float64(d)/1e6)
	}
	res.set("server.pull_p50_ms", median(pullMS))
	res.note("server.pull_p50_ms", "%d pulls of %d pairs, first pulls excluded", len(pullMS), pullK)
	res.set("server.pull.count", pulls)
	res.note("server.pull.count", "%.0f sessions", sessions)
	res.set("server.refused", refused)
	res.set("server.cpu_ms_per_pull", (cpuAfter-cpuBefore)*1e3/pulls)
	res.set("server.log_bytes_per_pull", float64(logAfter.Size()-logBefore.Size())/requests)
	res.note("server.log_bytes_per_pull", "stderr bytes over %.0f requests", requests)
	res.set("runtime.gc_cpu_share", memAfter.GCCPUFraction)
	res.note("runtime.gc_cpu_share", "the daemon's, since its start")
	res.set("runtime.gc_cycles", (memAfter.NumGC-memBefore.NumGC)/sessions)
	res.note("runtime.gc_cycles", "the daemon's, per session")

	// The same session in-process: 1 + pulls·pullK Next calls.
	inProcess, err := medianWall(rig.twinQ, rig.twin.targets(nil), numSamples, rig.twinQ.opts, res, rig.twinQ.pairs)
	if err != nil {
		return nil, err
	}
	res.set("server.overhead_ratio", traced/inProcess)
	res.note("server.overhead_ratio", "served session wall over the same %d Next calls in-process", rig.twinQ.pairs)

	if _, _, err := tracedQuery(res, rig.twinQ, rig.twin, rig.twinQ.pairs, budget/2, maxSessions,
		fmt.Sprintf("%s/seed-%d/in-process", servedWorkload.name, cfg.seed)); err != nil {
		return nil, err
	}

	if err := microRows(res, tmp); err != nil {
		return nil, err
	}
	res.finish(perLayer, false)
	return res, nil
}
