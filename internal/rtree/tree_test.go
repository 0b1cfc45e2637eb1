package rtree

import (
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/stats"
)

// smallConfig builds trees with tiny nodes so splits happen early.
func smallConfig() Config {
	return Config{Dims: 2, PageSize: 256, BufferFrames: 16}
}

func mustNew(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func randomPoints(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Dims: 2, MinFill: 0.9}); err == nil {
		t.Error("MinFill > 0.5 accepted")
	}
	if _, err := New(Config{Dims: 2, ReinsertFraction: 1.5}); err == nil {
		t.Error("ReinsertFraction >= 1 accepted")
	}
	if _, err := New(Config{Dims: 50, PageSize: 256}); err == nil {
		t.Error("page too small for dims accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := mustNew(t, smallConfig())
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree has bounds")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := false
	tr.Search(geom.R(geom.Pt(0, 0), geom.Pt(1, 1)), func(Entry) bool { found = true; return true })
	if found {
		t.Fatal("search on empty tree returned entries")
	}
}

func TestInsertAndSearchFew(t *testing.T) {
	tr := mustNew(t, smallConfig())
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 1)}
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []ObjID
	tr.Search(geom.R(geom.Pt(0, 0), geom.Pt(6, 6)), func(e Entry) bool {
		got = append(got, e.Obj)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("found %v, want objs 0 and 1", got)
	}
}

func TestInsertRejectsBadRect(t *testing.T) {
	tr := mustNew(t, smallConfig())
	if err := tr.Insert(geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, 1); err == nil {
		t.Error("inverted rect accepted")
	}
	if err := tr.Insert(geom.Pt(1, 2, 3).Rect(), 1); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestInsertManyInvariants(t *testing.T) {
	tr := mustNew(t, smallConfig())
	pts := randomPoints(42, 2000)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Fatalf("expected multi-level tree, height = %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchFindsExactlyMatching(t *testing.T) {
	tr := mustNew(t, smallConfig())
	pts := randomPoints(7, 1500)
	for i, p := range pts {
		tr.InsertPoint(p, ObjID(i))
	}
	query := geom.R(geom.Pt(200, 300), geom.Pt(450, 700))
	want := map[ObjID]bool{}
	for i, p := range pts {
		if query.ContainsPoint(p) {
			want[ObjID(i)] = true
		}
	}
	got := map[ObjID]bool{}
	tr.Search(query, func(e Entry) bool { got[e.Obj] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing obj %d", id)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := mustNew(t, smallConfig())
	for i, p := range randomPoints(3, 500) {
		tr.InsertPoint(p, ObjID(i))
	}
	calls := 0
	tr.Search(geom.R(geom.Pt(0, 0), geom.Pt(1000, 1000)), func(Entry) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("callback ran %d times, want 5", calls)
	}
}

func TestScanVisitsAll(t *testing.T) {
	tr := mustNew(t, smallConfig())
	for i, p := range randomPoints(11, 800) {
		tr.InsertPoint(p, ObjID(i))
	}
	seen := map[ObjID]bool{}
	tr.Scan(func(e Entry) bool { seen[e.Obj] = true; return true })
	if len(seen) != 800 {
		t.Fatalf("Scan saw %d objects, want 800", len(seen))
	}
}

func TestRectObjects(t *testing.T) {
	tr := mustNew(t, smallConfig())
	rnd := rand.New(rand.NewSource(13))
	type obj struct {
		r  geom.Rect
		id ObjID
	}
	var objs []obj
	for i := 0; i < 600; i++ {
		x, y := rnd.Float64()*1000, rnd.Float64()*1000
		w, h := rnd.Float64()*20, rnd.Float64()*20
		r := geom.R(geom.Pt(x, y), geom.Pt(x+w, y+h))
		objs = append(objs, obj{r: r, id: ObjID(i)})
		if err := tr.Insert(r, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	query := geom.R(geom.Pt(100, 100), geom.Pt(400, 400))
	want := map[ObjID]bool{}
	for _, o := range objs {
		if o.r.Intersects(query) {
			want[o.id] = true
		}
	}
	got := map[ObjID]bool{}
	tr.Search(query, func(e Entry) bool { got[e.Obj] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

func TestDelete(t *testing.T) {
	tr := mustNew(t, smallConfig())
	pts := randomPoints(99, 1000)
	for i, p := range pts {
		tr.InsertPoint(p, ObjID(i))
	}
	// Delete half, checking invariants periodically.
	for i := 0; i < 500; i++ {
		ok, err := tr.Delete(pts[i].Rect(), ObjID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("object %d not found for deletion", i)
		}
		if i%100 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleted objects are gone; remaining ones findable.
	seen := map[ObjID]bool{}
	tr.Scan(func(e Entry) bool { seen[e.Obj] = true; return true })
	for i := 0; i < 500; i++ {
		if seen[ObjID(i)] {
			t.Fatalf("deleted object %d still present", i)
		}
	}
	for i := 500; i < 1000; i++ {
		if !seen[ObjID(i)] {
			t.Fatalf("object %d missing", i)
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := mustNew(t, smallConfig())
	tr.InsertPoint(geom.Pt(1, 1), 1)
	ok, err := tr.Delete(geom.Pt(2, 2).Rect(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deleted a missing object")
	}
	// Same rect, different id.
	ok, _ = tr.Delete(geom.Pt(1, 1).Rect(), 99)
	if ok {
		t.Fatal("deleted object with wrong id")
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := mustNew(t, smallConfig())
	pts := randomPoints(5, 300)
	for i, p := range pts {
		tr.InsertPoint(p, ObjID(i))
	}
	for i, p := range pts {
		if ok, err := tr.Delete(p.Rect(), ObjID(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree must remain usable.
	for i, p := range pts[:50] {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIOCounted(t *testing.T) {
	c := &stats.Counters{}
	cfg := smallConfig()
	cfg.BufferFrames = 4 // tiny buffer to force evictions
	cfg.Counters = c
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, p := range randomPoints(1, 1000) {
		tr.InsertPoint(p, ObjID(i))
	}
	if c.NodeIO() == 0 {
		t.Fatal("no node I/O counted with 4-frame buffer")
	}
}

func TestMinObjectsUnder(t *testing.T) {
	tr := mustNew(t, smallConfig())
	m := tr.MinEntries()
	if got := tr.MinObjectsUnder(0); got != m {
		t.Fatalf("MinObjectsUnder(0) = %d, want %d", got, m)
	}
	if got := tr.MinObjectsUnder(1); got != m*m {
		t.Fatalf("MinObjectsUnder(1) = %d, want %d", got, m*m)
	}
}

func TestCountNodes(t *testing.T) {
	tr := mustNew(t, smallConfig())
	for i, p := range randomPoints(2, 500) {
		tr.InsertPoint(p, ObjID(i))
	}
	counts, err := tr.CountNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != tr.Height() {
		t.Fatalf("levels %d != height %d", len(counts), tr.Height())
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("root level has %d nodes", counts[len(counts)-1])
	}
	if counts[0] < 2 {
		t.Fatalf("leaf level has %d nodes for 500 points", counts[0])
	}
}

func TestHigherDimensions(t *testing.T) {
	tr := mustNew(t, Config{Dims: 4, PageSize: 1024, BufferFrames: 16})
	rnd := rand.New(rand.NewSource(21))
	n := 500
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64(), rnd.Float64(), rnd.Float64(), rnd.Float64())
		if err := tr.InsertPoint(pts[i], ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lo := geom.Pt(0.2, 0.2, 0.2, 0.2)
	hi := geom.Pt(0.8, 0.8, 0.8, 0.8)
	query := geom.R(lo, hi)
	want := 0
	for _, p := range pts {
		if query.ContainsPoint(p) {
			want++
		}
	}
	got := 0
	tr.Search(query, func(Entry) bool { got++; return true })
	if got != want {
		t.Fatalf("4-D search found %d, want %d", got, want)
	}
}

func TestPaperDefaults(t *testing.T) {
	tr := mustNew(t, Config{Dims: 2})
	// 2048-byte pages, 2-D float64 entries: fan-out 51 ≈ the paper's 50.
	if tr.MaxFanout() < 45 || tr.MaxFanout() > 55 {
		t.Fatalf("default fan-out = %d, want ≈50", tr.MaxFanout())
	}
	if tr.MinEntries() != int(0.4*float64(tr.MaxFanout())) {
		t.Fatalf("min entries = %d", tr.MinEntries())
	}
}
