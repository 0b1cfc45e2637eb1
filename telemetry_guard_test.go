package distjoin_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/obs"
	"distjoin/internal/qtrace"
	"distjoin/internal/server"
)

// telemetryPackages are the packages that know about telemetry sinks. The
// engine layers may reach them through exactly one door.
var telemetryPackages = []string{"meter", "obs", "profile", "qtrace", "stats"}

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
				if path == "time" && (base == "engine.go" || base == "blockqueue.go" || base == "tier.go" || base == "pqueue.go" || base == "pool.go") {
					t.Errorf("%s imports \"time\": the per-pair path must read the clock through its meter only", file)
				}
			}
		}
		if len(seen) > 1 {
			t.Errorf("internal/%s imports %d telemetry packages %v, want at most one", pkg, len(seen), seen)
		}
	}
}

// TestSpatialHoldsOnlyTheAbstraction is the layering guard of the index
// abstraction: non-test code in internal/spatial imports no package of this
// module but internal/geom — no index structure, no pager. Each structure
// implements spatial.Index itself, so what a traversal reads of a node is
// decided in that structure alone.
func TestSpatialHoldsOnlyTheAbstraction(t *testing.T) {
	files := nonTestGoFiles(t, filepath.Join("internal", "spatial"))
	if len(files) == 0 {
		t.Fatal("internal/spatial holds no Go file")
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "distjoin/") && path != "distjoin/internal/geom" {
				t.Errorf("%s imports %q: internal/spatial imports only internal/geom", file, path)
			}
		}
	}
}

// TestOneConstructorFamily is the API guard of the query constructors:
// every operator over any SpatialIndex pair returns the one iterator type,
// *Join, and there is one constructor per operator. In the root package and
// in internal/distjoin the exported functions returning a *Join are exactly
// the four ...Indexes constructors, no type SemiJoin exists, and no exported
// function anywhere takes an *rtree.Tree (or the root's *Index) and returns
// a *Join.
func TestOneConstructorFamily(t *testing.T) {
	isJoin := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.Ident:
			return x.Name == "Join"
		case *ast.SelectorExpr:
			return x.Sel.Name == "Join"
		}
		return false
	}
	isTree := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.Ident:
			return x.Name == "Index"
		case *ast.SelectorExpr:
			pkg, _ := x.X.(*ast.Ident)
			return pkg != nil && pkg.Name == "rtree" && x.Sel.Name == "Tree"
		}
		return false
	}
	type ctor struct {
		name      string
		takesTree bool
	}
	scan := func(file string) (ctors []ctor, semi bool) {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() || d.Type.Results == nil {
					continue
				}
				for _, res := range d.Type.Results.List {
					if !isJoin(res.Type) {
						continue
					}
					c := ctor{name: d.Name.Name}
					for _, p := range d.Type.Params.List {
						if isTree(p.Type) {
							c.takesTree = true
						}
					}
					ctors = append(ctors, c)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "SemiJoin" {
						semi = true
					}
				}
			}
		}
		return ctors, semi
	}
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []struct {
		files []string
		want  []string
	}{
		{rootFiles, []string{"ClusteringJoinIndexes", "DistanceJoinIndexes", "DistanceSemiJoinIndexes", "KNearestJoinIndexes"}},
		{nonTestGoFiles(t, filepath.Join("internal", "distjoin")), []string{"NewClusteringJoinIndexes", "NewJoinIndexes", "NewKNearestJoinIndexes", "NewSemiJoinIndexes"}},
	} {
		var got []string
		for _, file := range pkg.files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			ctors, semi := scan(file)
			for _, c := range ctors {
				got = append(got, c.name)
			}
			if semi {
				t.Errorf("%s declares a SemiJoin type: every operator returns *Join", file)
			}
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(pkg.want, " ") {
			t.Errorf("exported functions returning *Join: %v, want exactly %v", got, pkg.want)
		}
	}
	for _, file := range nonTestGoFiles(t, ".") {
		ctors, _ := scan(file)
		for _, c := range ctors {
			if c.takesTree {
				t.Errorf("%s: %s takes an R-tree and returns *Join: wrap the tree as a SpatialIndex and call the ...Indexes constructor", file, c.name)
			}
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
// (engine.go, parallel.go, hybrid.go, pool.go) it was 7,599 and 6,930.
// The carriers are now the engine, its block queue and disk tier, and the
// pool. The set is the root package's telemetry surface (obs.go), the
// server's, and every telemetry package. It was 3,813 lines once the SLO
// was one counter, 3,675 once the mock trace collector left the span
// exporter for a test-support package, 3,654 before the parallel path went and 3,474 once the
// partition gauges, the merge meter and the merge span went with it, and
// 3,373 once the query became the unit of telemetry — one meter per query,
// one closing report per trace, no per-engine run factory and no node-I/O
// slow-log threshold, and 3,274 after the sweep that kept only the names a
// test or CI step reads — no engine start/stop tallies, no Snapshot copies
// of the counts, no unread /metrics family or span attribute, the
// inter-pair delay kept per query. footprintBound is its line count once
// the span exporter went and a served query's trace counted its own pulls
// instead (2,497) plus 2 % slack.
const footprintBound = 2546

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
		filepath.Join("internal", "distjoin", "engine.go"), filepath.Join("internal", "distjoin", "blockqueue.go"),
		filepath.Join("internal", "pqueue", "tier.go"), filepath.Join("internal", "pager", "pool.go"),
	}
	tel, car := count(set), count(carriers)
	t.Logf("telemetry file set: %d non-test lines (4946 before the meter); with engine/blockqueue/tier/pool: %d", tel, tel+car)
	if tel > footprintBound {
		t.Errorf("telemetry file set grew to %d lines, bound %d: delete something, or move the bound and say why", tel, footprintBound)
	}
}

// flakyStore fails its first page write with a transient error, once.
type flakyStore struct {
	distjoin.PageStore
	failed bool
}

func (s *flakyStore) WritePage(id distjoin.PageID, buf []byte) error {
	if !s.failed {
		s.failed = true
		return fmt.Errorf("flaky store: %w", distjoin.ErrTransientIO)
	}
	return s.PageStore.WritePage(id, buf)
}

// TestMetricsFamiliesMatchDesign scrapes a full /metrics exposition — the
// Recorder, the query tracer, RED and the server's saturation gauges — and
// holds the set of its families to the table of
// DESIGN.md §8.7, so that a family cannot be added or removed without the
// reference. The Recorder is fed by a hybrid-queue join whose store fails one
// write transiently (retried) and by a query canceled mid-run; the families
// that answer §8.6's work, disk-tier and cancellation questions must print
// what a Stats view attached to the same runs holds.
func TestMetricsFamiliesMatchDesign(t *testing.T) {
	water := distjoin.NewIndexFromPoints(datagen.Water(5, 600))
	defer water.Close()
	roads := distjoin.NewIndexFromPoints(datagen.Roads(6, 900))
	defer roads.Close()
	rec, c := distjoin.NewRecorder(distjoin.ObsConfig{}), &distjoin.Stats{}
	qt := qtrace.New(qtrace.Config{})
	// drain runs a join to its end or its first error, calling cancel once
	// it has delivered cancelAt pairs.
	drain := func(opts distjoin.Options, cancelAt int, cancel func()) (pairs int, err error) {
		j, err := distjoin.DistanceJoinIndexes(water.AsSpatialIndex(), roads.AsSpatialIndex(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for {
			if pairs == cancelAt {
				cancel()
			}
			_, ok, err := j.Next()
			if err != nil || !ok {
				return pairs, err
			}
			pairs++
		}
	}
	var store *flakyStore
	hybrid := distjoin.Options{
		Counters: c, Obs: rec, Tracer: qt, MaxPairs: 2000,
		Queue: distjoin.QueueHybrid, HybridDT: 1, QueuePageSize: 256,
		RetryIO: distjoin.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		QueueStore: func(pageSize int) (distjoin.PageStore, error) {
			mem, err := distjoin.NewMemPageStore(pageSize)
			store = &flakyStore{PageStore: mem}
			return store, err
		},
	}
	if n, err := drain(hybrid, -1, nil); err != nil || n != 2000 || store == nil || !store.failed {
		t.Fatalf("hybrid join: %d pairs, err %v; want 2000 pairs past one retried write", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if n, err := drain(distjoin.Options{Counters: c, Obs: rec, Tracer: qt, Context: ctx}, 10, cancel); n != 10 || !errors.Is(err, distjoin.ErrCanceled) {
		t.Fatalf("canceled join: %d pairs, err %v; want ErrCanceled after 10", n, err)
	}

	red := obs.NewRED()
	red.Observe("next", 200, time.Millisecond, "q0000001")
	srv := server.NewServer(server.Config{})
	defer srv.Close()
	var b strings.Builder
	obs.WriteMetricsTraced(&b, rec, qt, red.WritePrometheus, srv.WritePrometheus)
	scrape := b.String()

	got := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(scrape, -1) {
		got[m[1]] = true
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := string(doc)
	start := strings.Index(ref, "### 8.7 ")
	end := strings.Index(ref[start:], "Per-query numbers")
	if start < 0 || end < 0 {
		t.Fatal("DESIGN.md has no §8.7 family table")
	}
	want := map[string]bool{}
	for _, line := range strings.Split(ref[start:start+end], "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range regexp.MustCompile("`(distjoind?_[a-z_]+)`").FindAllStringSubmatch(cells[1], -1) {
				want[m[1]] = true
			}
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("/metrics family %s is not in DESIGN.md §8.7", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("DESIGN.md §8.7 lists %s, which /metrics does not expose", name)
		}
	}

	s := c.Snapshot()
	for family, v := range map[string]int64{
		"distjoin_io_retries_total":          s.IORetries,
		"distjoin_queue_spilled_pairs_total": s.QueueDiskPairs,
		"distjoin_queries_canceled_total":    s.Cancellations,
		"distjoin_stats_dist_calcs_total":    s.DistCalcs,
		"distjoin_stats_queue_inserts_total": s.QueueInserts,
		"distjoin_stats_max_queue_size":      s.MaxQueueSize,
	} {
		if v <= 0 || !strings.Contains(scrape, fmt.Sprintf("\n%s %d\n", family, v)) {
			t.Errorf("/metrics lacks %s %d (the Stats view of the same runs)", family, v)
		}
	}
	if s.IORetries != 1 || s.Cancellations != 1 {
		t.Errorf("Stats view: %d retries, %d cancellations; want 1 and 1", s.IORetries, s.Cancellations)
	}
}
