package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/geom"
)

// writeCSV materializes a random point file and returns its path.
func writeCSV(t *testing.T, seed int64, n int) string {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "pts.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < n; i++ {
		fmt.Fprintf(f, "%g,%g\n", rnd.Float64()*100, rnd.Float64()*100)
	}
	return path
}

// captureStdout redirects os.Stdout for the duration of fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	total := 0
	for {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil || n == 0 {
			break
		}
	}
	return string(buf[:total]), runErr
}

func countLines(s string) int {
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	return lines
}

func TestRunJoinStreamsPairs(t *testing.T) {
	a := writeCSV(t, 1, 50)
	b := writeCSV(t, 2, 60)
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: 5, metricName: "euclidean"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines := countLines(out); lines != 5 {
		t.Fatalf("printed %d pairs, want 5:\n%s", lines, out)
	}
}

func TestRunSemiJoin(t *testing.T) {
	a := writeCSV(t, 3, 30)
	b := writeCSV(t, 4, 40)
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, semi: true, metricName: "manhattan"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines := countLines(out); lines != 30 {
		t.Fatalf("semi-join printed %d pairs, want 30", lines)
	}
}

// TestRunReverseMaxPairs drives the farthest-first join (§2.2.5) with its
// K-bound estimation from the command line: -reverse -k 50 must print the 50
// farthest pairs of a brute-force join over the same files, farthest first.
func TestRunReverseMaxPairs(t *testing.T) {
	const k = 50
	a := writeCSV(t, 13, 120)
	b := writeCSV(t, 14, 150)
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: k, reverse: true, metricName: "euclidean"})
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) []geom.Point {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pts, err := datagen.ReadPoints(f)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	pa, pb := read(a), read(b)
	type pair struct {
		i, j int
		d    float64
	}
	all := make([]pair, 0, len(pa)*len(pb))
	for i, p := range pa {
		for j, q := range pb {
			all = append(all, pair{i, j, geom.Euclidean.Dist(p, q)})
		}
	}
	sort.Slice(all, func(x, y int) bool { return all[x].d > all[y].d })

	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != k {
		t.Fatalf("printed %d pairs, want %d:\n%s", len(lines), k, out)
	}
	for n, line := range lines {
		var i, j int
		var d float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &i, &j, &d); err != nil {
			t.Fatalf("line %d %q: %v", n+1, line, err)
		}
		want := all[n]
		if i != want.i || j != want.j || math.Abs(d-want.d) > 1e-9*want.d {
			t.Fatalf("pair %d is %q, want %d %d %g (the %d-th farthest)", n+1, line, want.i, want.j, want.d, n+1)
		}
	}
}

// TestRunHybridQueueOnDisk pins that -queue hybrid runs the library's
// default disk tier, a scratch file in TMPDIR, so storage faults can reach
// it: with TMPDIR present the pairs are the memory queue's, with TMPDIR
// missing the run fails.
func TestRunHybridQueueOnDisk(t *testing.T) {
	a := writeCSV(t, 11, 400)
	b := writeCSV(t, 12, 400)
	hybrid := cliOptions{fileA: a, fileB: b, k: 300, metricName: "euclidean", queueName: "hybrid", queueDT: 0.5}
	memory := hybrid
	memory.queueName = "memory"
	want, err := captureStdout(t, func() error { return run(memory) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error { return run(hybrid) })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("-queue hybrid printed\n%s\nwant the memory queue's\n%s", got, want)
	}
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	if _, err := captureStdout(t, func() error { return run(hybrid) }); err == nil {
		t.Fatal("-queue hybrid ran with TMPDIR missing: its disk tier never touched a file")
	}
}

func TestRunValidation(t *testing.T) {
	a := writeCSV(t, 5, 10)
	if err := run(cliOptions{fileB: a, metricName: "euclidean"}); err == nil {
		t.Error("missing -a accepted")
	}
	if err := run(cliOptions{fileA: a, fileB: a, metricName: "bogus"}); err == nil {
		t.Error("unknown metric accepted")
	}
	if err := run(cliOptions{fileA: "/does/not/exist.csv", fileB: a, metricName: "euclidean"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunKNNJoin(t *testing.T) {
	a := writeCSV(t, 6, 20)
	b := writeCSV(t, 7, 30)
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, semi: true, knn: 3, metricName: "euclidean"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines := countLines(out); lines != 60 {
		t.Fatalf("3-NN join printed %d pairs, want 60", lines)
	}
}

func TestRunKNNRequiresSemi(t *testing.T) {
	a := writeCSV(t, 8, 5)
	if err := run(cliOptions{fileA: a, fileB: a, knn: 3, metricName: "euclidean"}); err == nil {
		t.Fatal("-knn without -semi accepted")
	}
}

// TestRunStatsJSON asserts the -stats-json satellite: the last stdout line
// is a JSON stats.Counters snapshot consistent with the pair stream.
func TestRunStatsJSON(t *testing.T) {
	a := writeCSV(t, 9, 40)
	b := writeCSV(t, 10, 50)
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: 7, metricName: "euclidean", statsJSON: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 7 pairs + 1 JSON line:\n%s", len(lines), out)
	}
	var snap distjoin.Stats
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &snap); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if snap.PairsReported != 7 {
		t.Errorf("PairsReported = %d, want 7", snap.PairsReported)
	}
	if snap.DistCalcs == 0 || snap.QueueInserts == 0 {
		t.Errorf("expected non-zero work counters, got %+v", snap)
	}
}

// TestRunParallelWithObservability runs the join with a recorder attached:
// the stream is the plain run's output, and the /metrics endpoint, scraped
// while -linger holds it up, counts every delivered pair once.
func TestRunParallelWithObservability(t *testing.T) {
	a := writeCSV(t, 13, 200)
	b := writeCSV(t, 14, 200)
	const k = 25
	want, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: k, metricName: "euclidean"})
	})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	done := make(chan struct{})
	scraped := make(chan string, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), fmt.Sprintf("distjoin_pairs_delivered_total %d\n", k)) {
				scraped <- string(body)
				return
			}
		}
	}()
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: k, metricName: "euclidean",
			metricsAddr: addr, linger: time.Second})
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("output with a recorder differs from the plain run:\n%s\nwant:\n%s", out, want)
	}
	if countLines(out) != k {
		t.Fatalf("printed %d pairs, want %d", countLines(out), k)
	}
	if _, ok := <-scraped; !ok {
		t.Fatalf("never scraped pairs_delivered_total = %d from %s", k, addr)
	}
}

// TestRunQueryTracing drives the per-query tracing flags: -slowlog captures
// the run as a JSONL trace, and -flightrec (without a metrics endpoint)
// dumps the trace to stderr.
func TestRunQueryTracing(t *testing.T) {
	a := writeCSV(t, 21, 40)
	b := writeCSV(t, 22, 50)
	slow := filepath.Join(t.TempDir(), "slow.jsonl")
	out, err := captureStdout(t, func() error {
		return run(cliOptions{
			fileA: a, fileB: b, k: 10, metricName: "euclidean",
			flightRec: 4, slowLogPath: slow, queryID: "cli-test",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if countLines(out) != 10 {
		t.Fatalf("pair lines = %d, want 10", countLines(out))
	}
	raw, err := os.ReadFile(slow)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want 1", len(lines))
	}
	var qt distjoin.QueryTrace
	if err := json.Unmarshal([]byte(lines[0]), &qt); err != nil {
		t.Fatalf("slow log line is not a trace: %v", err)
	}
	if qt.ID != "cli-test" || qt.Kind != "join" || qt.Resources.Pairs != 10 {
		t.Fatalf("trace = id %q kind %q pairs %d", qt.ID, qt.Kind, qt.Resources.Pairs)
	}
	if qt.Coverage < 0.5 {
		t.Errorf("coverage = %v, suspiciously low for a sequential run", qt.Coverage)
	}
}

// TestRunSlowLogThreshold: a threshold no tiny run can reach keeps the log
// empty.
func TestRunSlowLogThreshold(t *testing.T) {
	a := writeCSV(t, 23, 20)
	b := writeCSV(t, 24, 20)
	slow := filepath.Join(t.TempDir(), "slow.jsonl")
	_, err := captureStdout(t, func() error {
		return run(cliOptions{
			fileA: a, fileB: b, k: 5, metricName: "euclidean",
			slowLogPath: slow, slowWall: time.Hour,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(slow)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != "" {
		t.Fatalf("slow log not empty under 1h wall threshold: %q", raw)
	}
}
