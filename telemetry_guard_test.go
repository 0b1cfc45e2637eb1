package distjoin_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// telemetryPackages are the packages that know about telemetry sinks. The
// engine layers may reach them through exactly one door.
var telemetryPackages = []string{"meter", "obs", "profile", "qtrace", "otlpexport", "stats"}

// nonTestGoFiles lists the non-test Go files under dir.
func nonTestGoFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOneTelemetryDoor is the import-graph guard of the telemetry spine:
// non-test code in the engine, the priority queue and the pager may import
// at most one telemetry package (internal/meter, the one place that knows
// which sinks exist), and none of the three reads the clock for telemetry on
// its own: the queue (the block queue and its disk tier) brackets its page
// I/O with meter hooks, and a buffer pool only counts.
func TestOneTelemetryDoor(t *testing.T) {
	for _, pkg := range []string{"distjoin", "pqueue", "pager"} {
		seen := map[string]bool{}
		for _, file := range nonTestGoFiles(t, filepath.Join("internal", pkg)) {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, tel := range telemetryPackages {
					if path == "distjoin/internal/"+tel {
						seen[tel] = true
					}
				}
				base := filepath.Base(file)
				if path == "time" && (base == "engine.go" || base == "parallel.go" || base == "blockqueue.go" || base == "tier.go" || base == "pqueue.go" || base == "pool.go") {
					t.Errorf("%s imports \"time\": the per-pair path must read the clock through its meter only", file)
				}
			}
		}
		if len(seen) > 1 {
			t.Errorf("internal/%s imports %d telemetry packages %v, want at most one", pkg, len(seen), seen)
		}
	}
}

// TestTelemetryFootprint prints the non-test line count of the telemetry
// file set, so the trend is visible per PR (run with -v; CI does), and fails
// when the set regrows past footprintBound. The set (then without
// internal/meter) was 4,946 lines before the per-engine meter replaced the
// four-sink fan-out, 4,362 before the Recorder's event stream was deleted,
// 4,042 before the daemon's second counts view and the restating /metrics
// families went, 4,003 before the SLO became one counter and the telemetry
// knobs nothing set went; with the four files that carried the fan-out
// (engine.go, parallel.go, hybrid.go, pool.go) it was 7,599 and 6,930. The
// carriers are now the engine, its block queue and disk tier, and the pool.
// The set is the root package's telemetry surface (obs.go), the server's,
// and every telemetry package. footprintBound is the set's line count once
// the SLO was one counter (3,813) plus 2 % slack.
const footprintBound = 3889

func TestTelemetryFootprint(t *testing.T) {
	count := func(files []string) (n int) {
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			n += bytes.Count(data, []byte("\n"))
		}
		return n
	}
	set := []string{"obs.go", filepath.Join("internal", "server", "obs.go")}
	for _, pkg := range telemetryPackages {
		set = append(set, nonTestGoFiles(t, filepath.Join("internal", pkg))...)
	}
	carriers := []string{
		filepath.Join("internal", "distjoin", "engine.go"), filepath.Join("internal", "distjoin", "parallel.go"),
		filepath.Join("internal", "distjoin", "blockqueue.go"), filepath.Join("internal", "pqueue", "tier.go"),
		filepath.Join("internal", "pager", "pool.go"),
	}
	tel, car := count(set), count(carriers)
	t.Logf("telemetry file set: %d non-test lines (4946 before the meter); with engine/parallel/blockqueue/tier/pool: %d", tel, tel+car)
	if tel > footprintBound {
		t.Errorf("telemetry file set grew to %d lines, bound %d: delete something, or move the bound and say why", tel, footprintBound)
	}
}
