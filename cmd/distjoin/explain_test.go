package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// captureStderr redirects os.Stderr for the duration of fn.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := fn()
	w.Close()
	os.Stderr = old
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

func TestIsMark(t *testing.T) {
	marks := []int64{1, 10, 100, 1000}
	for _, m := range marks {
		if !isMark(m) {
			t.Errorf("isMark(%d) = false", m)
		}
	}
	for _, m := range []int64{0, 2, 5, 11, 99, 101, 500} {
		if isMark(m) {
			t.Errorf("isMark(%d) = true", m)
		}
	}
}

func TestRunExplainTable(t *testing.T) {
	a := writeCSV(t, 41, 120)
	b := writeCSV(t, 42, 120)
	var errTable string
	_, err := captureStdout(t, func() error {
		var runErr error
		errTable, runErr = captureStderr(t, func() error {
			return run(cliOptions{fileA: a, fileB: b, k: 25, maxD: 50,
				metricName: "euclidean", explain: true})
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE", "phase coverage", "expand", "emit",
		"counters:", "inter-pair delay:", "at distance",
	} {
		if !strings.Contains(errTable, want) {
			t.Errorf("explain table missing %q:\n%s", want, errTable)
		}
	}
}

func TestRunExplainJSON(t *testing.T) {
	a := writeCSV(t, 43, 100)
	b := writeCSV(t, 44, 100)
	const k = 12
	out, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: k,
			metricName: "euclidean", explainJSON: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != k+1 {
		t.Fatalf("got %d lines, want %d pairs + 1 JSON line", len(lines), k+1)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(keys) != 3 || keys["trace"] == nil || keys["delay"] == nil || keys["time_to_kth"] == nil {
		t.Errorf("explain JSON keys: want exactly trace, delay and time_to_kth\n%s", lines[len(lines)-1])
	}
	var doc explainDoc
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, lines[len(lines)-1])
	}
	qt := doc.Trace
	if qt == nil || qt.Kind != "join" {
		t.Fatalf("trace = %+v", qt)
	}
	if qt.WallSeconds <= 0 {
		t.Errorf("wall = %g", qt.WallSeconds)
	}
	if qt.Root.Find("expand") == nil || qt.Root.Find("emit") == nil {
		t.Errorf("span tree lacks phase spans: %+v", qt.Root)
	}
	if qt.Resources.Pairs != k {
		t.Errorf("pairs_reported = %d, want %d", qt.Resources.Pairs, k)
	}
	if doc.Delay.InterPair.Count == 0 {
		t.Error("no inter-pair delay observations")
	}
	if len(doc.TimeToKth) == 0 {
		t.Fatal("no time-to-kth marks")
	}
	last := doc.TimeToKth[len(doc.TimeToKth)-1]
	if last.K != k {
		t.Errorf("last mark k = %d, want %d", last.K, k)
	}
}

func TestRunCPUAndMemProfileFlags(t *testing.T) {
	a := writeCSV(t, 45, 60)
	b := writeCSV(t, 46, 60)
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	_, err := captureStdout(t, func() error {
		return run(cliOptions{fileA: a, fileB: b, k: 5, metricName: "euclidean",
			cpuProfile: cpu, memProfile: mem})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
