package distjoin

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// The decoded index nodes are shared by every cursor on an index, and queued
// pairs hold views into them. These tests pin what that sharing must never
// leak: not between goroutines, not to a caller holding a result, not across
// a modification of the index.

// tinyPoolTree bulk-loads points behind a pool far smaller than the tree, so
// every traversal keeps evicting (and re-decoding) nodes other cursors hold
// views of.
func tinyPoolTree(t *testing.T, pts []geom.Point, frames int) *rtree.Tree {
	t.Helper()
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 256, BufferFrames: frames}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSharedNodesConcurrentCursors: many goroutines run joins and semi-joins
// at once over the same two trees, whose pools evict continuously; every
// cursor must report exactly what the same query reports alone. Run under
// -race this is also the proof that sharing decoded nodes is free of data
// races. It is deliberately not skipped in -short mode.
func TestSharedNodesConcurrentCursors(t *testing.T) {
	a, b := clusteredPoints(51, 700), clusteredPoints(52, 900)
	// A pool reports ErrAllPinned rather than wait, so it needs a frame per
	// concurrent reader (15 cursors); each tree has
	// several times as many pages.
	ta, tb := tinyPoolTree(t, a, 32), tinyPoolTree(t, b, 32)
	type query struct {
		name string
		run  func() ([]Pair, error)
	}
	drain := func(next func() (Pair, bool, error), closeFn func() error, limit int) ([]Pair, error) {
		defer closeFn()
		var out []Pair
		for limit == 0 || len(out) < limit {
			p, ok, err := next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, p)
		}
		return out, nil
	}
	join := func(opts Options, limit int) func() ([]Pair, error) {
		return func() ([]Pair, error) {
			j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), opts)
			if err != nil {
				return nil, err
			}
			return drain(j.Next, j.Close, limit)
		}
	}
	semi := func(f SemiFilter, opts Options) func() ([]Pair, error) {
		return func() ([]Pair, error) {
			s, err := NewSemiJoinIndexes(WrapRTree(ta), WrapRTree(tb), f, opts)
			if err != nil {
				return nil, err
			}
			return drain(s.Next, s.Close, 0)
		}
	}
	hybrid := Options{Queue: QueueHybrid, HybridDT: 15, QueueStore: memQueueStore, QueuePageSize: 1024}
	queries := []query{
		{"join", join(Options{}, 3000)},
		{"join-simultaneous", join(Options{Traversal: TraverseSimultaneous, MaxDist: 60}, 3000)},
		{"join-hybrid", join(hybrid, 3000)},
		{"semi-globalall", semi(FilterGlobalAll, Options{})},
		{"semi-hybrid", semi(FilterInside2, hybrid)},
	}
	want := make([][]Pair, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = q.run(); err != nil {
			t.Fatal(q.name, err)
		}
		if len(want[i]) == 0 {
			t.Fatal(q.name, "reported nothing")
		}
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := q.run()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q.name, err)
					return
				}
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("%s: %d pairs, alone %d", q.name, len(got), len(want[i]))
					return
				}
				for k := range got {
					w := want[i][k]
					if got[k].Obj1 != w.Obj1 || got[k].Obj2 != w.Obj2 || got[k].Dist != w.Dist ||
						!got[k].Rect1.Equal(w.Rect1) || !got[k].Rect2.Equal(w.Rect2) {
						errs <- fmt.Errorf("%s: pair %d is %v, alone %v", q.name, k, got[k], w)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReportedRectsAreCopies: a caller may do what it likes with the
// rectangles of the pairs it holds — scribble over them, append to them —
// without changing any other pair it holds, or what another cursor on the
// same indexes reports afterwards. Every pair is held until the drain ends,
// so a pair's rectangles still share memory with the pairs delivered after
// it when they are vandalised.
func TestReportedRectsAreCopies(t *testing.T) {
	a, b := clusteredPoints(53, 300), clusteredPoints(54, 400)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	for _, opts := range []Options{{}, {Queue: QueueHybrid, HybridDT: 10, QueueStore: memQueueStore, QueuePageSize: 1024}} {
		clean, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := drainJoin(t, clean, 4000)
		clean.Close()

		vandal, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		held := drainJoin(t, vandal, len(want))
		vandal.Close()
		if len(held) != len(want) {
			t.Fatalf("%d pairs, want %d", len(held), len(want))
		}
		intact := func(i int, p Pair) bool {
			w := want[i]
			return p.Obj1 == w.Obj1 && p.Obj2 == w.Obj2 && p.Dist == w.Dist &&
				p.Rect1.Equal(a[p.Obj1].Rect()) && p.Rect2.Equal(b[p.Obj2].Rect())
		}
		for i, p := range held {
			if !intact(i, p) {
				t.Fatalf("pair %d is %v, want %v", i, p, want[i])
			}
		}
		for i, p := range held {
			for _, r := range []geom.Rect{p.Rect1, p.Rect2} {
				for d := range r.Lo {
					r.Lo[d], r.Hi[d] = math.NaN(), math.Inf(-1)
				}
				_ = append(r.Lo, 1e9, 1e9, 1e9)
				_ = append(r.Hi, 1e9, 1e9, 1e9)
			}
			for k := i + 1; k < len(held); k++ {
				if !intact(k, held[k]) {
					t.Fatalf("vandalising pair %d changed pair %d to %v, want %v", i, k, held[k], want[k])
				}
			}
		}

		other, err := NewJoinIndexes(ta, tb, opts) // a second cursor, after the vandalism
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range drainJoin(t, other, len(want)) {
			if !intact(i, q) {
				t.Fatalf("second cursor, pair %d is %v, want %v", i, q, want[i])
			}
		}
		other.Close()
	}
}

// TestJoinAfterIndexModification: a join warms the decoded-node cache, the
// index is then modified — every page an insert or delete writes drops its
// decoded form — and the next join must see the new contents, all of them
// and nothing stale, with the tree's invariants intact.
func TestJoinAfterIndexModification(t *testing.T) {
	a, b := clusteredPoints(55, 250), clusteredPoints(56, 300)
	// Pools larger than the trees: nothing is evicted, so only the write
	// path can make a modified page's decoded form go away.
	build := func(pts []geom.Point) *rtree.Tree {
		tr, err := rtree.New(rtree.Config{Dims: 2, PageSize: 256, BufferFrames: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		for i, p := range pts {
			if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	ta, tb := build(a), build(b)
	check := func(stage string) {
		t.Helper()
		for _, tr := range []*rtree.Tree{ta, tb} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(stage, err)
			}
		}
		j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		got := drainJoin(t, j, 0)
		// Deleted objects are marked by a nil point.
		var live []bruteResult
		for i, p := range a {
			for k, q := range b {
				if p != nil && q != nil {
					live = append(live, bruteResult{i: i, j: k, d: geom.Euclidean.Dist(p, q)})
				}
			}
		}
		sort.Slice(live, func(x, y int) bool { return live[x].d < live[y].d })
		if len(got) != len(live) {
			t.Fatalf("%s: %d pairs, brute force %d", stage, len(got), len(live))
		}
		assertDistancesMatch(t, got, live)
		for _, p := range got {
			if !p.Rect1.Equal(a[p.Obj1].Rect()) || !p.Rect2.Equal(b[p.Obj2].Rect()) {
				t.Fatalf("%s: pair (%d,%d) carries stale geometry", stage, p.Obj1, p.Obj2)
			}
		}
	}
	check("built")
	// Move a tenth of each input: delete, then insert elsewhere under the
	// same id; delete another tenth outright; append new objects.
	moved := clusteredPoints(57, 60)
	for i := 0; i < 25; i++ {
		for k, in := range []struct {
			tr  *rtree.Tree
			pts []geom.Point
		}{{ta, a}, {tb, b}} {
			id := i * 9
			if ok, err := in.tr.Delete(in.pts[id].Rect(), rtree.ObjID(id)); err != nil || !ok {
				t.Fatal(ok, err)
			}
			in.pts[id] = moved[2*i+k]
			if err := in.tr.InsertPoint(in.pts[id], rtree.ObjID(id)); err != nil {
				t.Fatal(err)
			}
			gone := i*9 + 4
			if ok, err := in.tr.Delete(in.pts[gone].Rect(), rtree.ObjID(gone)); err != nil || !ok {
				t.Fatal(ok, err)
			}
			in.pts[gone] = nil
		}
	}
	check("moved and deleted")
	for i, p := range clusteredPoints(58, 40) {
		a = append(a, p)
		if err := ta.InsertPoint(p, rtree.ObjID(len(a)-1)); err != nil {
			t.Fatal(i, err)
		}
	}
	check("grown")
}
