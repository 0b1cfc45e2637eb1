package distjoin

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// TestQpairSize pins the queue element at 88 bytes: the block id lives in
// what was padding of item, so neither the heap's slab slots nor the pairs
// the hybrid path copies grew.
func TestQpairSize(t *testing.T) {
	if got := unsafe.Sizeof(qpair{}); got != 88 {
		t.Fatalf("qpair is %d bytes, want 88", got)
	}
}

// randomBlockNode builds a synthetic index node of n entries with distinct
// refs in shuffled order and, for an internal node, children on a few
// different levels (as quadtree siblings are).
func randomBlockNode(rnd *rand.Rand, leaf bool, n int) *IndexNode {
	node := &IndexNode{Leaf: leaf, Level: 3, Coords: make([]float64, 4*n)}
	for i := range node.Coords {
		node.Coords[i] = rnd.Float64()
	}
	for i, ref := range rnd.Perm(n) {
		r := geom.RectOf(node.Coords[4*i : 4*i+4])
		if leaf {
			node.Objects = append(node.Objects, ObjectRef{ID: uint64(ref), Rect: r})
		} else {
			node.Children = append(node.Children, NodeRef{Ref: uint64(ref), Level: rnd.Intn(3), Rect: r})
		}
	}
	return node
}

// TestBlockQueueOrderProperty: whatever mix of blocks and single pairs the
// queue holds — keys drawn from a handful of values so ties abound, mixed
// child levels, either tie-break, forward and reverse — popping it to
// exhaustion yields exactly the pairLess order of the pairs it stands for,
// with Len counting pairs throughout and every block's storage returned.
func TestBlockQueueOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		depthFirst, reverse := seed&1 == 0, seed&2 == 0
		less := pairLess(depthFirst, reverse)
		q := newBlockQueue(depthFirst, reverse, nil)
		var want []qpair
		for b := 0; b < 1+rnd.Intn(6); b++ {
			leaf, side := rnd.Intn(2) == 0, 1+rnd.Intn(2)
			node := randomBlockNode(rnd, leaf, 1+rnd.Intn(40))
			other := newItem(itemKind(rnd.Intn(3)), int8(rnd.Intn(3)), uint64(1000+b), geom.Pt(0, 0).Rect())
			q.begin(other, node, side, kindObj)
			for i := range len(node.Coords) / 4 {
				if rnd.Intn(4) == 0 {
					continue // filtered at generation
				}
				e := blockEntry{key: float64(rnd.Intn(4)), idx: int32(i)}
				q.collect(e.key, i)
				want = append(want, q.cur.pair(e, 0))
			}
			q.end()
			if rnd.Intn(2) == 0 {
				p := qpair{key: float64(rnd.Intn(4)), i1: newItem(kindObj, -1, uint64(2000+b), geom.Pt(1, 1).Rect()), i2: other}
				if err := q.Insert(p); err != nil {
					t.Fatal(err)
				}
				want = append(want, p)
			}
		}
		slices.SortFunc(want, func(a, b qpair) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
		for i, w := range want {
			if q.Len() != len(want)-i {
				t.Fatalf("seed %d: Len %d with %d pairs left", seed, q.Len(), len(want)-i)
			}
			peek, _, _ := q.Peek()
			got, ok, _ := q.Pop()
			if !ok || less(got, w) || less(w, got) || got.i1.blk != 0 || peek.i1.blk != 0 || less(peek, got) || less(got, peek) {
				t.Fatalf("seed %d (depthFirst %v, reverse %v): pop %d = %+v (peeked %+v), want %+v", seed, depthFirst, reverse, i, got, peek, w)
			}
			if got.i1.kind != w.i1.kind || got.i2.kind != w.i2.kind || &got.i1.c[0] != &w.i1.c[0] || &got.i2.c[0] != &w.i2.c[0] {
				t.Fatalf("seed %d: pop %d materialised %+v, want %+v", seed, i, got, w)
			}
		}
		if _, ok, _ := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: queue not empty after %d pops", seed, len(want))
		}
		if len(q.freeIDs) != len(q.blocks) {
			t.Fatalf("seed %d: %d of %d blocks freed", seed, len(q.freeIDs), len(q.blocks))
		}
		recycled := 0
		for class, list := range q.free {
			recycled += class * restQuantum * len(list)
		}
		if recycled != q.carved {
			t.Fatalf("seed %d: %d of %d carved entries back on the free lists", seed, recycled, q.carved)
		}
	}
}

// restInUse is the rest storage live blocks hold, in entries.
func (q *blockQueue) restInUse() int {
	n := 0
	for i := range q.blocks {
		n += cap(q.blocks[i].rest)
	}
	return n
}

// TestAllocBlockQueue gates the block queue's steady state at zero
// allocations — an expansion collected straight from a node's coordinates,
// closed into a block, and the block advanced child by child to exhaustion
// — and its storage at the peak, not the total, of what a drain queues.
func TestAllocBlockQueue(t *testing.T) {
	skipUnderRace(t)
	ta, tb := buildTree(t, clusteredPoints(51, 300)), buildTree(t, clusteredPoints(52, 300))
	// A join's expansion, and a semi-join's on either side: the second side
	// runs the Local rule over the d_max row kernel's buffer.
	for _, c := range []struct {
		name string
		semi *semiState
		side int
	}{
		{"join", nil, 1},
		{"semi-join side 1", &semiState{filter: FilterGlobalAll, k: 1}, 1},
		{"semi-join side 2", &semiState{filter: FilterGlobalAll, k: 1}, 2},
	} {
		e, err := newEngine(WrapRTree(ta), WrapRTree(tb), Options{}, c.semi)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		seed, _, _ := e.q.Pop() // the root/root pair
		cycle := func() {
			if err := e.expandSide(seed, c.side); err != nil {
				t.Fatal(err)
			}
			for e.q.Len() > 0 {
				if _, _, err := e.q.Pop(); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle()
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: an expansion and the exhaustion of its block allocate %v times, want 0", c.name, n)
		}
	}

	// The exhaustive drain: blocks are exhausted and their storage reused
	// while later expansions still open new ones.
	j, err := newEngine(WrapRTree(ta), WrapRTree(tb), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	peak, pairs := 0, 0
	for {
		_, ok, err := j.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pairs++
		peak = max(peak, j.bq.restInUse())
	}
	t.Logf("%d pairs drained: %d entries of block storage carved, %d in use at the peak", pairs, j.bq.carved, peak)
	if pairs != 300*300 || j.bq.restInUse() != 0 {
		t.Fatalf("drained %d pairs leaving %d entries in use", pairs, j.bq.restInUse())
	}
	if j.bq.carved > 2*peak {
		t.Errorf("block storage is %d entries, more than twice the %d in use at the peak", j.bq.carved, peak)
	}
}

// TestQueueElementsAtFirstPair is ROADMAP item 4's kill criterion as a
// test: at the first pair of a 2,000 × 4,000 Even / DepthFirst join the
// queue's heap holds at most a fifth as many elements as the pairs it
// stands for.
func TestQueueElementsAtFirstPair(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(61, 2000)), buildTree(t, clusteredPoints(62, 4000))
	c := &stats.Counters{}
	j, err := NewJoin(ta, tb, Options{Traversal: TraverseEven, TieBreak: DepthFirst, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok, err := j.Next(); !ok || err != nil {
		t.Fatal("no first pair", err)
	}
	s := c.Snapshot()
	t.Logf("at the first pair: %d pairs queued at the peak, in %d elements", s.MaxQueueSize, s.MaxQueueElements)
	if s.MaxQueueElements == 0 || s.MaxQueueElements*5 > s.MaxQueueSize {
		t.Errorf("queue peaked at %d elements for %d pairs, want at most a fifth", s.MaxQueueElements, s.MaxQueueSize)
	}
	e := runnerOf(j).(*engine)
	if e.bq.heap.Len()*5 > j.QueueLen() {
		t.Errorf("queue holds %d elements for %d pairs, want at most a fifth", e.bq.heap.Len(), j.QueueLen())
	}
	// What a queued pair holds, counted from the structures themselves (the
	// benchmark's heap difference does not see a store taken from
	// freeStores): rest entries, blocks, and heap slots of a qpair and three
	// links. A block of these small trees stands for 9 pairs; fuller nodes
	// spread its 184 bytes over more.
	held := e.bq.carved*int(unsafe.Sizeof(blockEntry{})) + len(e.bq.blocks)*int(unsafe.Sizeof(block{})) +
		e.bq.heap.Len()*int(unsafe.Sizeof(qpair{})+16)
	if perPair := float64(held) / float64(j.QueueLen()); perPair > 48 {
		t.Errorf("queue holds %.1f bytes per queued pair, want at most 48", perPair)
	} else {
		t.Logf("queue holds %.1f bytes per queued pair", perPair)
	}
}

// flakyIndex fails the failAt-th node read once.
type flakyIndex struct {
	SpatialIndex
	reads, failAt int
}

var errFlaky = errors.New("flaky node read")

func (f *flakyIndex) Node(ref uint64) (*IndexNode, error) {
	if f.reads++; f.reads == f.failAt {
		return nil, errFlaky
	}
	return f.SpatialIndex.Node(ref)
}

// TestBlockQueueFailedExpansion: an expansion whose node read fails leaves
// no block half open and the queue whole — the pair it popped is lost with
// it, exactly as under per-pair insertion, so an engine driven on past the
// error delivers the same sequence as the scalar reference does.
func TestBlockQueueFailedExpansion(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(71, 200)), buildTree(t, clusteredPoints(72, 200))
	for _, failAt := range []int{3, 9, 40} {
		var streams [2][]Pair
		for v, scalar := range []bool{false, true} {
			c := &stats.Counters{}
			e, err := newEngine(WrapRTree(ta), &flakyIndex{SpatialIndex: WrapRTree(tb), failAt: failAt}, Options{Counters: c}, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.scalarExpand = scalar
			failed := false
			for len(streams[v]) < 3000 {
				p, ok, err := e.next()
				if err != nil {
					if !errors.Is(err, errFlaky) || failed {
						t.Fatalf("failAt %d: %v", failAt, err)
					}
					failed = true
					if e.bq.cur.node != nil || len(e.bq.pend) != 0 {
						t.Fatalf("failAt %d: the failed expansion left a block open", failAt)
					}
					if s := c.Snapshot(); int64(e.q.Len()) != s.QueueInserts-s.QueuePops {
						t.Fatalf("failAt %d: queue holds %d pairs after %d inserts and %d pops", failAt, e.q.Len(), s.QueueInserts, s.QueuePops)
					}
					continue
				}
				if !ok {
					break
				}
				streams[v] = append(streams[v], p)
			}
			if !failed {
				t.Fatalf("failAt %d: the fault never fired", failAt)
			}
			e.close()
		}
		if len(streams[0]) != len(streams[1]) {
			t.Fatalf("failAt %d: blocks delivered %d pairs, per-pair insertion %d", failAt, len(streams[0]), len(streams[1]))
		}
		for i, p := range streams[0] {
			if s := streams[1][i]; p.Obj1 != s.Obj1 || p.Obj2 != s.Obj2 || p.Dist != s.Dist {
				t.Fatalf("failAt %d: pair %d is (%d,%d,%v), per-pair insertion delivers (%d,%d,%v)", failAt, i, p.Obj1, p.Obj2, p.Dist, s.Obj1, s.Obj2, s.Dist)
			}
		}
	}
}

// dropFreeStores makes the next queues start in fresh stores.
func dropFreeStores() {
	for len(freeStores) > 0 {
		<-freeStores
	}
}

// firstPairs runs a join of ta and tb to its first n pairs and closes it.
func firstPairs(t *testing.T, ta, tb *rtree.Tree, opts Options, n int) ([]Pair, *blockStore) {
	t.Helper()
	e, err := newEngine(WrapRTree(ta), WrapRTree(tb), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.bq.blockStore
	var out []Pair
	for len(out) < n {
		p, ok, err := e.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestBlockStoreRecycled: a closed queue's storage serves the next query —
// with nothing of the closed query left pinned, whatever the chunks still
// hold of it not showing in the next query's output, and a repeated query
// allocating no queue storage.
func TestBlockStoreRecycled(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(81, 600)), buildTree(t, clusteredPoints(82, 900))
	reverse := Options{Reverse: true, TieBreak: BreadthFirst}
	dropFreeStores()
	want, _ := firstPairs(t, tb, ta, reverse, 500)
	dropFreeStores()

	first, st := firstPairs(t, ta, tb, Options{}, 2000)
	if len(st.chunks) == 0 || cap(st.blocks) == 0 {
		t.Fatalf("the query used no block storage: %d chunks, %d blocks", len(st.chunks), cap(st.blocks))
	}
	for i, b := range st.blocks[:cap(st.blocks)] {
		if b.node != nil || b.other.c != nil || b.rest != nil {
			t.Fatalf("block %d of the closed queue's store still pins %+v", i+1, b)
		}
	}
	chunks, blocks := len(st.chunks), cap(st.blocks)
	again, st2 := firstPairs(t, ta, tb, Options{}, 2000)
	if st2 != st {
		t.Fatal("the second query did not start in the first one's store")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("the repeated query delivered a different sequence")
	}
	if len(st.chunks) != chunks || cap(st.blocks) != blocks {
		t.Errorf("the repeated query grew the store from %d chunks and %d blocks to %d and %d", chunks, blocks, len(st.chunks), cap(st.blocks))
	}
	got, st3 := firstPairs(t, tb, ta, reverse, 500)
	if st3 != st {
		t.Fatal("the third query did not start in the first one's store")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a query in a used store delivered a different sequence than in a fresh one")
	}

	// A store that grew past the bound is not kept.
	dropFreeStores()
	huge := &blockStore{chunks: make([][]blockEntry, maxFreeEntries/maxRestChunk+1)}
	chunk := make([]blockEntry, maxRestChunk)
	for i := range huge.chunks {
		huge.chunks[i] = chunk
	}
	if huge.recycle(); len(freeStores) != 0 {
		t.Error("a store of more than maxFreeEntries entries was kept")
	}
}

// TestBlockStoreConcurrent: queries opening and closing on several
// goroutines at once — partition workers, a server's cursors — share the
// free list without sharing a store.
func TestBlockStoreConcurrent(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(83, 300)), buildTree(t, clusteredPoints(84, 300))
	want, _ := firstPairs(t, ta, tb, Options{}, 400)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j, err := NewJoin(ta, tb, Options{MaxPairs: 400})
				if err != nil {
					t.Error(err)
					return
				}
				var got []Pair
				for {
					p, ok, err := j.Next()
					if err != nil {
						t.Error(err)
					}
					if !ok || err != nil {
						break
					}
					got = append(got, p)
				}
				j.Close()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("a concurrent query delivered %d pairs differing from the sequential sequence", len(got))
				}
			}
		}()
	}
	wg.Wait()
}
