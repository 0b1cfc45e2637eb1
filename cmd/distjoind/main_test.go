package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"distjoin"
)

// TestBadInvocations checks flag and configuration errors exit non-zero
// without starting a listener.
func TestBadInvocations(t *testing.T) {
	// A CSV the daemon reads but cannot index: 40 columns do not fit a
	// 2 KiB page's minimum fan-out.
	wide := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(wide, []byte(strings.Repeat("1,", 39)+"1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args []string
		code int
	}{
		"no-indexes":   {[]string{"-addr", "127.0.0.1:0"}, 2},
		"bad-index":    {[]string{"-index", "nopath"}, 2},
		"bad-csv":      {[]string{"-csv", "nopath"}, 2},
		"missing-file": {[]string{"-index", "x=/does/not/exist"}, 1},
		"csv-too-wide": {[]string{"-addr", "127.0.0.1:0", "-csv", "wide=" + wide}, 1},
		"bad-flag":     {[]string{"-nope"}, 2},
	} {
		t.Run(name, func(t *testing.T) {
			errw, err := os.CreateTemp(t.TempDir(), "stderr")
			if err != nil {
				t.Fatal(err)
			}
			defer errw.Close()
			if got := run(tc.args, errw); got != tc.code {
				t.Fatalf("exit code %d, want %d", got, tc.code)
			}
		})
	}
}

// TestServeSessionAndShutdown boots the daemon on an ephemeral port with
// demo indexes, a CSV-registered one and a persisted one opened cold, runs a
// cursor session against it (create, next, pause, resume, delete), checks
// the observability routes — including the node-I/O families, which stayed
// at zero while no sink was attached to the registry's buffer pools — and
// shuts down via SIGTERM.
func TestServeSessionAndShutdown(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "pts.csv")
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "%d,%d\n", (i*37)%1000, (i*91)%1000)
	}
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// A persisted index, reopened by the daemon with an empty buffer pool:
	// its first traversal must show up as physical node reads.
	coldPath := filepath.Join(dir, "cold.idx")
	cold, err := distjoin.CreateIndexFile(coldPath, distjoin.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := cold.InsertPoint(distjoin.Pt(float64((i*53)%1000), float64((i*29)%1000)), distjoin.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}
	cold.Close()

	errPath := filepath.Join(dir, "stderr")
	errw, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errw.Close()

	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-demo", "300",
			"-csv", "extra=" + csvPath,
			"-index", "cold=" + coldPath,
			"-flightrec", "32",
			"-slowlog", filepath.Join(dir, "slow.jsonl"),
			"-cursor-ttl", "1m",
			"-max-cursors", "3",
			"-max-inflight", "5",
		}, errw)
	}()

	// The daemon prints its bound address to stderr once serving.
	addrRe := regexp.MustCompile(`serving (\d+) indexes on ([^"\s]+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			raw, _ := os.ReadFile(errPath)
			t.Fatalf("daemon never came up; stderr:\n%s", raw)
		}
		raw, _ := os.ReadFile(errPath)
		if m := addrRe.FindStringSubmatch(string(raw)); m != nil {
			if m[1] != "4" {
				t.Fatalf("registered %s indexes, want 4", m[1])
			}
			addr = m[2]
		}
		time.Sleep(20 * time.Millisecond)
	}
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Full cursor session: create → next → pause → resume → delete.
	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"join","index1":"cold","index2":"extra","max_pairs":30}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create: %d: %s", resp.StatusCode, raw)
	}
	var cr struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	code, raw := get("/v1/cursor/" + cr.Cursor + "/next?k=10")
	if code != 200 || !strings.Contains(string(raw), `"pairs"`) {
		t.Fatalf("next: %d: %s", code, raw)
	}
	time.Sleep(50 * time.Millisecond) // the pause
	code, raw = get("/v1/cursor/" + cr.Cursor + "/next?k=100")
	if code != 200 || !strings.Contains(string(raw), `"done":true`) {
		t.Fatalf("resume: %d: %s", code, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/cursor/"+cr.Cursor, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 204 {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}

	// Observability: metrics text, flight recorder (trace landed under the
	// cursor id after delete closed the engine).
	code, metrics := get("/metrics")
	if code != 200 || !strings.Contains(string(metrics), "distjoin_pairs_delivered_total") {
		t.Fatalf("metrics: %d: %.200s", code, metrics)
	}
	// The registry's pools report into the server-wide views: a session
	// over a cold index leaves node reads, buffer hits and the hit ratio
	// all non-zero.
	for _, family := range []string{"distjoin_stats_node_reads_total", "distjoin_stats_buffer_hits_total", "distjoin_pool_hit_ratio"} {
		m := regexp.MustCompile(`(?m)^` + family + ` (\S+)$`).FindSubmatch(metrics)
		if m == nil {
			t.Fatalf("/metrics has no %s sample", family)
		}
		if v, err := strconv.ParseFloat(string(m[1]), 64); err != nil || v <= 0 {
			t.Errorf("%s = %s after a served session over a cold index, want > 0", family, m[1])
		}
	}
	code, raw = get("/debug/queries/" + cr.Cursor)
	if code != 200 || !strings.Contains(string(raw), `"join"`) {
		t.Fatalf("debug query trace: %d: %s", code, raw)
	}
	var trace struct {
		Resources struct {
			NodeIO     int64 `json:"node_io"`
			BufferHits int64 `json:"buffer_hits"`
		} `json:"resources"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil || trace.Resources.NodeIO == 0 || trace.Resources.BufferHits == 0 {
		t.Errorf("cursor trace resources = %+v (err %v), want the pools' node I/O during the session", trace.Resources, err)
	}

	// -max-cursors and -max-inflight bind: the saturation gauges print the
	// limits, the table admits exactly three cursors, and the fourth create
	// is refused with 429.
	for _, want := range []string{"distjoind_cursors_open 0", "distjoind_cursors_max 3", "distjoind_pulls_inflight 0", "distjoind_pulls_inflight_max 5"} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).Match(metrics) {
			t.Errorf("/metrics has no %q sample", want)
		}
	}
	for i := 1; i <= 4; i++ {
		resp, err := http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"join","index1":"water","index2":"roads"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := 201
		if i > 3 {
			want = 429
		}
		if resp.StatusCode != want {
			t.Fatalf("create %d under -max-cursors 3: %d, want %d", i, resp.StatusCode, want)
		}
	}
	if _, metrics := get("/metrics"); !strings.Contains(string(metrics), "\ndistjoind_cursors_open 3\n") {
		t.Error("/metrics does not show the three open cursors")
	}

	// SIGTERM drains and exits 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case codeExit := <-done:
		if codeExit != 0 {
			raw, _ := os.ReadFile(errPath)
			t.Fatalf("exit %d; stderr:\n%s", codeExit, raw)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	raw2, _ := os.ReadFile(errPath)
	if !strings.Contains(string(raw2), "drained in") {
		t.Fatalf("no drain line in stderr:\n%s", raw2)
	}
}
