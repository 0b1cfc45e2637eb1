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

// TestQpairSize pins a queue pair at 88 bytes: what the memory queue's
// singles slab holds per pair, and what the hybrid path copies.
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
	for _, ref := range rnd.Perm(n) {
		node.Refs = append(node.Refs, uint64(ref))
		if !leaf {
			node.Levels = append(node.Levels, int8(rnd.Intn(3)))
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
				key := float64(rnd.Intn(4))
				q.collect(key, i)
				want = append(want, q.cur.pair(key, i))
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
			if !ok || less(got, w) || less(w, got) || less(peek, got) || less(got, peek) {
				t.Fatalf("seed %d (depthFirst %v, reverse %v): pop %d = %+v (peeked %+v), want %+v", seed, depthFirst, reverse, i, got, peek, w)
			}
			if got.i1.kind != w.i1.kind || got.i2.kind != w.i2.kind || &got.i1.c[0] != &w.i1.c[0] || &got.i2.c[0] != &w.i2.c[0] {
				t.Fatalf("seed %d: pop %d materialised %+v, want %+v", seed, i, got, w)
			}
		}
		if _, ok, _ := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: queue not empty after %d pops", seed, len(want))
		}
		assertStoreReturned(t, q)
	}
}

// assertStoreReturned checks that a drained queue has freed every block and
// single it used, pinning nothing, and has every carved rest entry back on
// the free lists.
func assertStoreReturned(t *testing.T, q *blockQueue) {
	t.Helper()
	if len(q.freeIDs) != len(q.blocks) || len(q.freeSingles) != len(q.singles) {
		t.Fatalf("%d of %d blocks and %d of %d singles freed", len(q.freeIDs), len(q.blocks), len(q.freeSingles), len(q.singles))
	}
	for i, b := range q.blocks {
		if b.node != nil || b.other.c != nil || b.rest != nil {
			t.Fatalf("freed block %d still pins %+v", i, b)
		}
	}
	for i, p := range q.singles {
		if p.i1.c != nil || p.i2.c != nil {
			t.Fatalf("freed single %d still pins %+v", i, p)
		}
	}
	recycled := 0
	for class, list := range q.free {
		recycled += class * restQuantum * len(list)
	}
	if recycled != q.carved {
		t.Fatalf("%d of %d carved entries back on the free lists", recycled, q.carved)
	}
}

// TestBlockQueueInterleaved: expansions, single pairs, peeks and pops mixed
// in any order — ties on the key, on the rank and on the level sum, either
// tie-break, forward and reverse — and every peek and pop returns the
// pairLess-least of the pairs the queue stands for at that moment.
func TestBlockQueueInterleaved(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		runBlockQueueScript(t, seed&1 == 0, seed&2 == 0, 10+rnd.Intn(120), rnd.Intn)
	}
}

// FuzzBlockQueue is TestBlockQueueInterleaved with the fuzzer choosing the
// operations: mode picks the tie-break and the direction, every byte of
// script one choice of the driver.
func FuzzBlockQueue(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{0, 1, 1, 9, 2, 3, 0, 0, 1, 5, 3, 3, 1, 2, 3})
	f.Add(byte(3), []byte{0, 0, 0, 39, 1, 1, 1, 1, 0, 1, 1, 20, 3, 2, 3, 3, 0, 1, 0, 7, 3})
	f.Fuzz(func(t *testing.T, mode byte, script []byte) {
		pick := func(n int) int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b) % n
		}
		runBlockQueueScript(t, mode&1 == 0, mode&2 == 0, len(script), pick)
	})
}

// runBlockQueueScript drives a block queue through ops operations, each
// chosen by pick(n), a value in [0, n) — an expansion (a block of 1–40
// children, keys from four values, mixed levels, either side), a single pair,
// a peek, a pop — then drains it. Every peek and pop is checked against a
// reference that holds the pairs the queue stands for and takes the least of
// them under pairLess; refs are distinct, so the least is one pair.
func runBlockQueueScript(t *testing.T, depthFirst, reverse bool, ops int, pick func(n int) int) {
	t.Helper()
	less := pairLess(depthFirst, reverse)
	q := newBlockQueue(depthFirst, reverse, nil)
	defer q.Close()
	var ref []qpair
	least := func() int {
		m := 0
		for i := range ref {
			if less(ref[i], ref[m]) {
				m = i
			}
		}
		return m
	}
	for step := 0; step < ops || len(ref) > 0; step++ {
		op := 3
		if step < ops {
			op = pick(4)
		}
		switch op {
		case 0:
			leaf, side, n := pick(2) == 0, 1+pick(2), 1+pick(40)
			node := &IndexNode{Leaf: leaf, Level: 3, Coords: make([]float64, 4*n)}
			for i := range node.Coords {
				node.Coords[i] = float64(pick(16))
			}
			refs := make([]int, n)
			for i := range refs {
				j := pick(i + 1)
				refs[i], refs[j] = refs[j], i
			}
			for _, r := range refs {
				node.Refs = append(node.Refs, uint64(r))
				if !leaf {
					node.Levels = append(node.Levels, int8(pick(3)))
				}
			}
			kind, level := itemKind(pick(3)), int8(-1)
			if kind == kindNode {
				level = int8(pick(3))
			}
			other := newItem(kind, level, uint64(1_000_000+step), geom.Pt(0, 0).Rect())
			q.begin(other, node, side, kindObj)
			for i := range n {
				if pick(4) == 0 {
					continue // filtered at generation
				}
				key := float64(pick(4))
				q.collect(key, i)
				p := qpair{key: key, i1: childItem(node, i, 4, kindObj), i2: other}
				if side == 2 {
					p.i1, p.i2 = p.i2, p.i1
				}
				ref = append(ref, p)
			}
			q.end()
		case 1:
			kind, level := itemKind(pick(3)), int8(-1)
			if kind == kindNode {
				level = int8(pick(3))
			}
			p := qpair{key: float64(pick(4)), i1: newItem(kind, level, uint64(2_000_000+step), geom.Pt(1, 1).Rect()), i2: newItem(kindObj, -1, uint64(pick(50)), geom.Pt(2, 2).Rect())}
			if err := q.Insert(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		case 2, 3:
			var got qpair
			var ok bool
			if op == 2 {
				got, ok, _ = q.Peek()
			} else {
				got, ok, _ = q.Pop()
			}
			if len(ref) == 0 {
				if ok {
					t.Fatalf("step %d: op %d on an empty queue returned %+v", step, op, got)
				}
				continue
			}
			m := least()
			w := ref[m]
			if !ok || got.key != w.key || got.i1.ref != w.i1.ref || got.i2.ref != w.i2.ref ||
				got.i1.kind != w.i1.kind || got.i2.kind != w.i2.kind || got.i1.level != w.i1.level || got.i2.level != w.i2.level ||
				&got.i1.c[0] != &w.i1.c[0] || &got.i2.c[0] != &w.i2.c[0] {
				t.Fatalf("depthFirst %v, reverse %v, step %d: op %d returned %+v, want %+v", depthFirst, reverse, step, op, got, w)
			}
			if op == 3 {
				ref[m] = ref[len(ref)-1]
				ref = ref[:len(ref)-1]
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d with %d pairs queued", step, q.Len(), len(ref))
		}
	}
	if _, ok, _ := q.Pop(); ok {
		t.Fatal("queue not empty after the drain")
	}
	assertStoreReturned(t, q)
}

// queueOp is one operation a join asked of its memory queue: a pop, or an
// expansion's block — its expansion and the children collected into it.
type queueOp struct {
	pop      bool
	blk      block
	children []head
}

// recordJoin runs the first pops of a default join of ta and tb through the
// engine's own generator — expandSide's three steps, with what was collected
// noted before end closes the block — and returns the root pair and what the
// join asked of the queue after it.
func recordJoin(t testing.TB, ta, tb *rtree.Tree, pops int) (qpair, []queueOp) {
	e := testEngine(t, WrapRTree(ta), WrapRTree(tb), Options{}, nil)
	defer e.close()
	root, _, _ := e.q.Peek()
	var ops []queueOp
	for range pops {
		p, ok, _ := e.q.Pop()
		if !ok {
			break
		}
		ops = append(ops, queueOp{pop: true})
		if !p.i1.isNode() && !p.i2.isNode() {
			continue // an object pair: delivered
		}
		index, nodeItem, other, side := e.t1, p.i1, p.i2, 1
		if !p.i1.isNode() || (p.i2.isNode() && p.i2.level > p.i1.level) { // Even traversal
			index, nodeItem, other, side = e.t2, p.i2, p.i1, 2
		}
		n, err := index.Node(nodeItem.ref)
		if err != nil {
			t.Fatal(err)
		}
		e.q.begin(other, n, side, e.leafEntryKind())
		e.generate(&e.q.cur, nodeItem.rect())
		ops = append(ops, queueOp{blk: e.q.cur, children: slices.Clone(e.q.pend)})
		e.q.end()
	}
	return root, ops
}

// BenchmarkBlockQueue times the memory queue alone: a recorded join's
// expansions and pops — 3,000 × 12,000 clustered points, its first 150,000
// pops — replayed against a fresh queue, reported per pop.
func BenchmarkBlockQueue(b *testing.B) {
	items := func(pts []geom.Point) []rtree.Item {
		out := make([]rtree.Item, len(pts))
		for i, p := range pts {
			out[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
		}
		return out
	}
	trees := [2]*rtree.Tree{}
	for i, n := range []int{3000, 12000} {
		tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 2048, BufferFrames: 1024}, items(clusteredPoints(int64(91+i), n)))
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		trees[i] = tr
	}
	root, ops := recordJoin(b, trees[0], trees[1], 150_000)
	pops := 0
	b.ResetTimer()
	for range b.N {
		q := newBlockQueue(true, false, nil)
		q.Insert(root)
		for i := range ops {
			op := &ops[i]
			if op.pop {
				q.Pop()
				pops++
				continue
			}
			q.begin(op.blk.other, op.blk.node, int(op.blk.side), op.blk.kind)
			for _, c := range op.children {
				q.collect(c.key, int(c.idx))
			}
			q.end()
		}
		q.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pops), "ns/pop")
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
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(51, 300))), WrapRTree(buildTree(t, clusteredPoints(52, 300)))
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
		e := testEngine(t, ta, tb, Options{}, c.semi)
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
	j := testEngine(t, ta, tb, Options{}, nil)
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
		peak = max(peak, j.q.restInUse())
	}
	t.Logf("%d pairs drained: %d entries of block storage carved, %d in use at the peak", pairs, j.q.carved, peak)
	if pairs != 300*300 || j.q.restInUse() != 0 {
		t.Fatalf("drained %d pairs leaving %d entries in use", pairs, j.q.restInUse())
	}
	if j.q.carved > 2*peak {
		t.Errorf("block storage is %d entries, more than twice the %d in use at the peak", j.q.carved, peak)
	}
}

// TestQueueElementsAtFirstPair is ROADMAP item 4's kill criterion as a
// test: at the first pair of a 2,000 × 4,000 Even / DepthFirst join the
// queue's heap holds at most a fifth as many elements as the pairs it
// stands for.
func TestQueueElementsAtFirstPair(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(61, 2000)), buildTree(t, clusteredPoints(62, 4000))
	c := &stats.Counters{}
	j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{Traversal: TraverseEven, TieBreak: DepthFirst, Counters: c})
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
	e := j.e
	if len(e.q.heads)*5 > j.QueueLen() {
		t.Errorf("queue holds %d elements for %d pairs, want at most a fifth", len(e.q.heads), j.QueueLen())
	}
	// What a queued pair holds, counted from the structures themselves (the
	// benchmark's heap difference does not see a store taken from
	// freeStores): 16-byte heads, 88-byte singles, blocks, and rest entries.
	held := len(e.q.heads)*int(unsafe.Sizeof(head{})) + len(e.q.singles)*int(unsafe.Sizeof(qpair{})) +
		len(e.q.blocks)*int(unsafe.Sizeof(block{})) + e.q.carved*int(unsafe.Sizeof(head{}))
	if perPair := float64(held) / float64(j.QueueLen()); perPair > 35 {
		t.Errorf("queue holds %.1f bytes per queued pair, want at most 35", perPair)
	} else {
		t.Logf("queue holds %.1f bytes per queued pair", perPair)
	}

	// The hybrid queue (adaptive D_T) at the first pair of a 12,000 ×
	// 64,000 join: its memory tiers — the heads, the singles and blocks
	// slabs, the rest entries, and the arena nodes the blocks of the heap
	// and the list tier hold their pairs in — come to at most a byte per
	// queued pair. Everything else is on disk.
	ta, tb = buildTree(t, clusteredPoints(63, 12000)), buildTree(t, clusteredPoints(64, 64000))
	h, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{Traversal: TraverseEven, TieBreak: DepthFirst, Queue: QueueHybrid, QueueStore: memQueueStore})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, ok, err := h.Next(); !ok || err != nil {
		t.Fatal("no first pair", err)
	}
	q := h.e.q
	held, arenas := tierBytes(q)
	if perPair := float64(held) / float64(h.QueueLen()); perPair > 1 {
		t.Errorf("hybrid queue's memory tiers hold %.2f bytes per queued pair in %d arenas (%d on disk of %d), want at most 1", perPair, arenas, q.disk.Len(), h.QueueLen())
	} else {
		t.Logf("hybrid queue's memory tiers hold %.2f bytes per queued pair in %d arenas (%d of %d pairs on disk)", perPair, arenas, q.disk.Len(), h.QueueLen())
	}
}

// tierBytes counts what the hybrid queue's memory tiers hold: the heads,
// the singles and blocks slabs, the rest entries, and the arena nodes the
// blocks of the heap and the list tier hold their pairs in.
func tierBytes(q *blockQueue) (held, arenas int) {
	held = len(q.heads)*int(unsafe.Sizeof(head{})) + len(q.singles)*int(unsafe.Sizeof(qpair{})) +
		len(q.blocks)*int(unsafe.Sizeof(block{})) + q.carved*int(unsafe.Sizeof(head{}))
	seen := map[*IndexNode]bool{}
	for _, b := range q.blocks {
		if n := b.node; n != nil && !seen[n] {
			seen[n] = true
			held += int(unsafe.Sizeof(*n)) + 8*cap(n.Coords) + 8*cap(n.Refs) + cap(n.Levels)
		}
	}
	return held, len(seen)
}

// TestHybridArenaCompaction pins what the retier trigger of end (fresh >
// 2*kept+4) buys: a pair popped from an arena leaves the rest of the arena
// in memory, so without compaction the arenas in use follow what has been
// queued, not what still is. Over the first 50,000 pairs of the clustered
// 12,000 × 64,000 join, sampled every 2,500 pairs, the memory tiers' peak
// counted bytes per queued pair stay under a gate. With D_T = 20 the
// trigger decides it: 86.3 B with it, 94.6 B without. The adaptive D_T
// fills so few arenas (under 30) that the trigger barely fires in this drain;
// its gate is the byte per queued pair of the first-pair check.
func TestHybridArenaCompaction(t *testing.T) {
	ta, tb := buildTree(t, clusteredPoints(63, 12000)), buildTree(t, clusteredPoints(64, 64000))
	for _, c := range []struct {
		dt, gate float64
	}{
		{0, 1},
		{20, 90},
	} {
		h, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{Traversal: TraverseEven, TieBreak: DepthFirst, Queue: QueueHybrid, QueueStore: memQueueStore, HybridDT: c.dt})
		if err != nil {
			t.Fatal(err)
		}
		q := h.e.q
		peak, peakArenas := 0.0, 0
		for i := 1; i <= 50000; i++ {
			if _, ok, err := h.Next(); !ok || err != nil {
				t.Fatalf("D_T %v: drain ended at pair %d: %v", c.dt, i, err)
			}
			if i%2500 != 0 {
				continue
			}
			held, arenas := tierBytes(q)
			if perPair := float64(held) / float64(h.QueueLen()); perPair > peak {
				peak, peakArenas = perPair, arenas
			}
		}
		h.Close()
		if peak > c.gate {
			t.Errorf("D_T %v: memory tiers peaked at %.2f bytes per queued pair in %d arenas, want at most %v", c.dt, peak, peakArenas, c.gate)
		} else {
			t.Logf("D_T %v: memory tiers peaked at %.2f bytes per queued pair in %d arenas", c.dt, peak, peakArenas)
		}
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
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(71, 200))), WrapRTree(buildTree(t, clusteredPoints(72, 200)))
	for _, failAt := range []int{3, 9, 40} {
		var streams [2][]Pair
		for v, scalar := range []bool{false, true} {
			c := &stats.Counters{}
			e := testEngine(t, ta, &flakyIndex{SpatialIndex: tb, failAt: failAt}, Options{Counters: c}, nil)
			e.scalarExpand = scalar
			failed := false
			for len(streams[v]) < 3000 {
				p, ok, err := e.next()
				if err != nil {
					if !errors.Is(err, errFlaky) || failed {
						t.Fatalf("failAt %d: %v", failAt, err)
					}
					failed = true
					if e.q.cur.node != nil || len(e.q.pend) != 0 {
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
	e := testEngine(t, WrapRTree(ta), WrapRTree(tb), opts, nil)
	st := e.q.blockStore
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
			t.Fatalf("block %d of the closed queue's store still pins %+v", i, b)
		}
	}
	if cap(st.singles) == 0 {
		t.Fatal("the query used no singles")
	}
	for i, p := range st.singles[:cap(st.singles)] {
		if p.i1.c != nil || p.i2.c != nil {
			t.Fatalf("single %d of the closed queue's store still pins %+v", i, p)
		}
	}
	size := func() [4]int { return [4]int{len(st.chunks), cap(st.blocks), cap(st.singles), cap(st.heads)} }
	grown := size()
	again, st2 := firstPairs(t, ta, tb, Options{}, 2000)
	if st2 != st {
		t.Fatal("the second query did not start in the first one's store")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("the repeated query delivered a different sequence")
	}
	if size() != grown {
		t.Errorf("the repeated query grew the store's chunks, blocks, singles and heads from %v to %v", grown, size())
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
	huge := &blockStore{chunks: make([][]head, maxFreeEntries/maxRestChunk+1)}
	chunk := make([]head, maxRestChunk)
	for i := range huge.chunks {
		huge.chunks[i] = chunk
	}
	if huge.recycle(); len(freeStores) != 0 {
		t.Error("a store of more than maxFreeEntries entries was kept")
	}
	perSingle := int(unsafe.Sizeof(qpair{}) / unsafe.Sizeof(head{}))
	huge = &blockStore{singles: make([]qpair, maxFreeEntries/perSingle+1)}
	if huge.recycle(); len(freeStores) != 0 {
		t.Error("a store of singles worth more than maxFreeEntries entries was kept")
	}
	perBlock := int(unsafe.Sizeof(block{}) / unsafe.Sizeof(head{}))
	huge = &blockStore{blocks: make([]block, maxFreeEntries/perBlock+1)}
	if huge.recycle(); len(freeStores) != 0 {
		t.Error("a store of blocks worth more than maxFreeEntries entries was kept")
	}
	huge = &blockStore{list: make([]head, maxFreeEntries+1)}
	if huge.recycle(); len(freeStores) != 0 {
		t.Error("a store whose hybrid list holds more than maxFreeEntries entries was kept")
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
				j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{MaxPairs: 400})
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
