package rtree

import (
	"os"
	"path/filepath"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

func namedStore(t *testing.T, path string, pageSize int) *pager.FileStore {
	t.Helper()
	s, err := pager.OpenNamedFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.pages")
	pts := randomPoints(201, 3000)

	// Session 1: build, flush, close.
	store := namedStore(t, path, 512)
	tr, err := New(Config{Dims: 2, PageSize: 512, BufferFrames: 16, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantHeight, wantLen := tr.Height(), tr.Len()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: reopen and verify everything survived.
	store2 := namedStore(t, path, 512)
	tr2, err := Open(store2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != wantLen || tr2.Height() != wantHeight || tr2.Dims() != 2 {
		t.Fatalf("reopened tree: len=%d height=%d dims=%d", tr2.Len(), tr2.Height(), tr2.Dims())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	query := geom.R(geom.Pt(100, 100), geom.Pt(500, 500))
	want := map[ObjID]bool{}
	for i, p := range pts {
		if query.ContainsPoint(p) {
			want[ObjID(i)] = true
		}
	}
	got := map[ObjID]bool{}
	tr2.Search(query, func(e Entry) bool { got[e.Obj] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("reopened search: %d results, want %d", len(got), len(want))
	}

	// The reopened tree accepts further mutation and another round trip.
	extra := randomPoints(202, 200)
	for i, p := range extra {
		if err := tr2.InsertPoint(p, ObjID(100000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := tr2.Delete(pts[0].Rect(), 0); err != nil || !ok {
		t.Fatalf("delete after reopen: %v %v", ok, err)
	}
	if err := tr2.Flush(); err != nil {
		t.Fatal(err)
	}
	tr2.Close()

	store3 := namedStore(t, path, 512)
	tr3, err := Open(store3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr3.Close()
	if tr3.Len() != wantLen+200-1 {
		t.Fatalf("third session len = %d, want %d", tr3.Len(), wantLen+200-1)
	}
	if err := tr3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistBulkLoaded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bulk.pages")
	pts := randomPoints(203, 5000)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
	}
	store := namedStore(t, path, 512)
	tr, err := BulkLoad(Config{Dims: 2, PageSize: 512, BufferFrames: 16, Store: store}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	tr2, err := Open(namedStore(t, path, 512), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != 5000 {
		t.Fatalf("reopened bulk tree len = %d", tr2.Len())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// Empty store: no meta page at all.
	empty := namedStore(t, filepath.Join(dir, "empty.pages"), 512)
	if _, err := Open(empty, nil); err == nil {
		t.Fatal("empty store opened")
	}
	empty.Close()
	// Garbage bytes where the meta page should be.
	path := filepath.Join(dir, "garbage.pages")
	if err := os.WriteFile(path, make([]byte, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	g := namedStore(t, path, 512)
	defer g.Close()
	if _, err := Open(g, nil); err == nil {
		t.Fatal("garbage store opened")
	}
}

func TestOpenWrongPageSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.pages")
	store := namedStore(t, path, 512)
	tr, err := New(Config{Dims: 2, PageSize: 512, BufferFrames: 16, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	tr.InsertPoint(geom.Pt(1, 1), 1)
	tr.Flush()
	tr.Close()
	// Reopening with a mismatched page size must fail cleanly (the file
	// length happens to be a multiple of 256 too).
	wrong := namedStore(t, path, 256)
	defer wrong.Close()
	if _, err := Open(wrong, nil); err == nil {
		t.Fatal("wrong page size accepted")
	}
}

func TestNewOnDirtyStoreFails(t *testing.T) {
	// New must refuse a store that already has pages (it would corrupt a
	// persisted tree); Open is the right call there.
	path := filepath.Join(t.TempDir(), "tree.pages")
	store := namedStore(t, path, 512)
	tr, _ := New(Config{Dims: 2, PageSize: 512, BufferFrames: 16, Store: store})
	tr.Flush()
	tr.Close()
	reopened := namedStore(t, path, 512)
	defer reopened.Close()
	if _, err := New(Config{Dims: 2, PageSize: 512, BufferFrames: 16, Store: reopened}); err == nil {
		t.Fatal("New on non-fresh store succeeded")
	}
}

func TestCreateFileOpenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cf.pages")
	tr, err := CreateFile(path, Config{Dims: 2, PageSize: 512, BufferFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts := randomPoints(301, 400)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.RootPage() == pager.InvalidPage {
		t.Fatal("invalid root page")
	}
	if b, ok := tr.Bounds(); !ok || !b.ContainsPoint(pts[0]) {
		t.Fatalf("Bounds = %v %v", b, ok)
	}
	if err := tr.DropCache(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	tr2, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != 400 {
		t.Fatalf("reopened Len = %d", tr2.Len())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// OpenFile on garbage and on a missing path fail cleanly.
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing file opened")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	os.WriteFile(bad, []byte("nonsense header bytes"), 0o644)
	if _, err := OpenFile(bad, nil); err == nil {
		t.Fatal("garbage file opened")
	}
}

func TestNodeLeafAccessor(t *testing.T) {
	if !(&Node{}).Leaf() || (&Node{Level: 2}).Leaf() {
		t.Fatal("Leaf() wrong")
	}
}

func TestBoundsEmptyRootNonEmptyTree(t *testing.T) {
	tr := mustNew(t, smallConfig())
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree reported bounds")
	}
	tr.InsertPoint(geom.Pt(3, 4), 1)
	b, ok := tr.Bounds()
	if !ok || !b.Equal(geom.Pt(3, 4).Rect()) {
		t.Fatalf("Bounds = %v %v", b, ok)
	}
}
