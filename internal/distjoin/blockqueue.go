package distjoin

import (
	"unsafe"

	"distjoin/internal/meter"
)

// blockQueue is the engine's memory queue: an implicit 4-ary min-heap of
// 16-byte heads, ONE per node expansion instead of one per generated pair.
// The join is, per outer item, an incremental nearest-neighbour search: of
// the children an expansion generates only the nearest remaining one has to
// be ordered against the rest of the queue. So the surviving children of an
// expansion are collected as (key, entry index), and the expansion ends by
// pushing a head for its smallest child — under the full pairLess order —
// that names a block holding the siblings, unordered. A pair that stands for
// itself (a seed, an Insert, an expansion's lone child) is a single, kept in
// a slab. A pair is materialised only when popped or peeked; popping a
// block's head overwrites the top with the block's next-smallest child (a
// linear scan of at most fan-out entries) and sifts it down once.
//
// Invariant: a block's head is its minimum — every child in a block's rest
// follows, in pairLess order, the child of that block currently in the
// heap. The heap's minimum is therefore the minimum of every pair the queue
// stands for, and the popped sequence is exactly the one a heap of all of
// them would give.
//
// Len, and the sizes reported to the meter's Push, are in pairs; the heap's
// own length is reported beside them as elements.
type blockQueue struct {
	m          *meter.Meter
	depthFirst bool
	sign       float64 // -1 under Reverse: heads hold keys times sign

	n int // pairs the queue stands for: heads, blocks' rests, and pend

	// The open expansion (cur.node is nil when none is open); the store's
	// pend collects its surviving children in generation order until end
	// picks the head.
	cur block

	*blockStore // nil once the queue is closed
}

// head is one heap element: the key of the pair it stands for times the
// queue's sign, so the heap always compares with <, and where the pair is:
// entry idx of block id's node, or, with the single bit set, singles[id]. A
// child waiting in a block's rest is a head too (its id unset).
type head struct {
	key float64
	id  uint32
	idx int32
}

const single = 1 << 31 // marks a head's id as a slot of singles

// blockStore is the memory a block queue works in. It outlives the queue:
// Close hands it to freeStores and the next query's queue starts in it, so a
// repeated query allocates no queue storage — and meets the collector far
// less often (DESIGN.md §5).
type blockStore struct {
	heads []head // the heap: heads[i]'s children are heads[4i+1 … 4i+4]

	// singles[s] is the pair a single's head names; freed slots are reused.
	singles     []qpair
	freeSingles []uint32

	// blocks[id] is block id until its last child pops; freed ids are reused.
	blocks  []block
	freeIDs []uint32
	pend    []head

	// Storage of the blocks' rest arrays: carved from pointer-free chunks in
	// multiples of restQuantum entries, recycled through one free list per
	// size when a block is exhausted, so the storage a drain holds follows
	// the peak of what is queued, not the total ever queued.
	chunks [][]head // every chunk owned; chunks[:next] have been carved from
	next   int
	chunk  []head // what is left of chunks[next-1]
	free   [][][]head
	carved int // entries carved from chunks so far
}

// freeStores holds the stores of closed queues: room for two, so two
// cursors that take turns on a shared index both find one. Not a sync.Pool:
// what one P puts back another P does not find, and whether the next query
// started in a used store would depend on where the scheduler ran it.
var freeStores = make(chan *blockStore, 2)

// maxFreeEntries bounds, in 16-byte entries (32 MiB), the heads, singles and
// rest chunks a store may own and still be kept (a live block has a head):
// one huge drain's storage does not stay with a process of small queries.
const maxFreeEntries = 1 << 21

func newBlockStore() *blockStore {
	select {
	case s := <-freeStores:
		return s
	default:
		return new(blockStore)
	}
}

// recycle offers the store of a closed queue to the next one. Blocks and
// singles pin decoded nodes, so their tables are cleared; the heads and
// chunks hold no pointers and are reused as they are.
func (s *blockStore) recycle() {
	owned := cap(s.heads) + cap(s.singles)*int(unsafe.Sizeof(qpair{})/unsafe.Sizeof(head{}))
	for _, c := range s.chunks {
		owned += len(c)
	}
	if owned > maxFreeEntries {
		return
	}
	clear(s.blocks)
	clear(s.singles)
	s.heads, s.singles, s.freeSingles = s.heads[:0], s.singles[:0], s.freeSingles[:0]
	s.blocks, s.freeIDs, s.pend = s.blocks[:0], s.freeIDs[:0], s.pend[:0]
	for class := range s.free {
		s.free[class] = s.free[class][:0]
	}
	s.next, s.chunk, s.carved = 0, nil, 0
	select {
	case freeStores <- s:
	default:
	}
}

// block is what the children of one expansion have in common: the pair's
// fixed item, the expanded node whose entries they are, which side of the
// pair they stand on, and the kind its leaf entries take. It pins the
// decoded node, as the item views of per-pair queueing pinned its
// coordinate block.
type block struct {
	other item
	node  *IndexNode
	side  uint8
	kind  itemKind
	rest  []head
}

const (
	restQuantum  = 4       // rest capacities are multiples of this many entries
	minRestChunk = 1 << 10 // entries in a query's first storage chunk
	maxRestChunk = 1 << 14 // chunks double up to this many entries (256 KiB)
)

func newBlockQueue(depthFirst, reverse bool, m *meter.Meter) *blockQueue {
	q := &blockQueue{m: m, depthFirst: depthFirst, sign: 1, blockStore: newBlockStore()}
	if reverse {
		q.sign = -1
	}
	return q
}

// pair materialises child i of the block as a queue pair under key.
func (b *block) pair(key float64, i int) qpair {
	c := childItem(b.node, i, len(b.other.c), b.kind)
	if b.side == 2 {
		return qpair{key, b.other, c}
	}
	return qpair{key, c, b.other}
}

// pair materialises the pair head h stands for.
func (q *blockQueue) pair(h head) qpair {
	if h.id&single != 0 {
		return q.singles[h.id&^single]
	}
	return q.blocks[h.id].pair(q.sign*h.key, int(h.idx))
}

// before is pairLess on the pairs two heads stand for; a tie of keys is
// settled from the singles and blocks without building either pair.
func (q *blockQueue) before(a, b *head) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return q.tieBefore(a, b)
}

// tieBefore is before at equal keys, kept out of it so that before inlines.
func (q *blockQueue) tieBefore(a, b *head) bool {
	return q.tieOrder(a).before(q.tieOrder(b), q.depthFirst)
}

// tieOrder is the tie order of the pair head h stands for.
func (q *blockQueue) tieOrder(h *head) tieOrder {
	if h.id&single != 0 {
		return q.singles[h.id&^single].tieOrder()
	}
	b := &q.blocks[h.id]
	if b.side == 2 {
		return b.other.tieOrder().and(b.child(h.idx))
	}
	return b.child(h.idx).and(b.other.tieOrder())
}

// child is the tie order of entry idx of the block's node as an item.
func (b *block) child(idx int32) tieOrder {
	if n := b.node; !n.Leaf {
		return tieOrder{1, int(int8(n.ChildLevel(int(idx)))), n.Refs[idx], 0}
	}
	return tieOrder{0, -1, b.node.Refs[idx], 0}
}

// push adds h to the heap.
func (q *blockQueue) push(h head) {
	q.heads = append(q.heads, h)
	i := len(q.heads) - 1
	for p := (i - 1) / 4; i > 0 && q.before(&h, &q.heads[p]); p = (i - 1) / 4 {
		q.heads[i], i = q.heads[p], p
	}
	q.heads[i] = h
}

// down restores the heap order below the top, which has just been replaced.
func (q *blockQueue) down() {
	hs := q.heads
	h, i := hs[0], 0
	for c := 1; c < len(hs); c = 4*i + 1 {
		m := c // the least of heads[i]'s children
		for j := c + 1; j < min(c+4, len(hs)); j++ {
			if q.before(&hs[j], &hs[m]) {
				m = j
			}
		}
		if !q.before(&hs[m], &h) {
			break
		}
		hs[i], i = hs[m], m
	}
	hs[i] = h
}

// takeMin removes and returns the smallest of entries (non-empty children
// of block b) under pairLess, returning the rest in no particular order.
// Siblings share the opposite item, so at equal keys the children decide.
func (q *blockQueue) takeMin(b *block, entries []head) (head, []head) {
	m, key := 0, entries[0].key
	for i := 1; i < len(entries); i++ {
		if k := entries[i].key; k != key {
			if k < key {
				m, key = i, k
			}
		} else if b.child(entries[i].idx).before(b.child(entries[m].idx), q.depthFirst) {
			m = i
		}
	}
	least, last := entries[m], len(entries)-1
	entries[m] = entries[last]
	return least, entries[:last]
}

// begin opens an expansion: until end, collect takes the surviving
// children of node n, each paired with other on the opposite side.
func (q *blockQueue) begin(other item, n *IndexNode, side int, leafKind itemKind) {
	q.cur = block{other: other, node: n, side: uint8(side), kind: leafKind}
}

// collect queues entry idx of the open expansion's node under key. It is
// the logical insertion: counted, and sized in pairs.
func (q *blockQueue) collect(key float64, idx int) {
	q.pend = append(q.pend, head{key: q.sign * key, idx: int32(idx)})
	q.n++
	q.m.Push(q.n, len(q.heads)+1)
}

// end closes the open expansion: its smallest collected child enters the
// heap, heading a block of the others — or as a single when it is alone.
func (q *blockQueue) end() {
	switch b := &q.cur; {
	case len(q.pend) == 1:
		q.push(q.single(b.pair(q.sign*q.pend[0].key, int(q.pend[0].idx))))
	case len(q.pend) > 1:
		first, others := q.takeMin(b, q.pend)
		b.rest = append(q.alloc(len(others)), others...)
		first.id = keep(&q.blocks, &q.freeIDs, *b)
		q.push(first)
	}
	q.cur, q.pend = block{}, q.pend[:0]
}

// single keeps p in the singles slab and returns a head naming it.
func (q *blockQueue) single(p qpair) head {
	return head{key: q.sign * p.key, id: single | keep(&q.singles, &q.freeSingles, p)}
}

// keep stores v in a slot of table, a freed one if there is one, and
// returns the slot's index.
func keep[T any](table *[]T, free *[]uint32, v T) uint32 {
	if k := len(*free); k > 0 {
		i := (*free)[k-1]
		*free, (*table)[i] = (*free)[:k-1], v
		return i
	}
	*table = append(*table, v)
	return uint32(len(*table) - 1)
}

// alloc returns an empty rest array with room for n entries.
func (q *blockQueue) alloc(n int) []head {
	class := (n + restQuantum - 1) / restQuantum
	if class < len(q.free) {
		if k := len(q.free[class]); k > 0 {
			r := q.free[class][k-1]
			q.free[class] = q.free[class][:k-1]
			return r
		}
	}
	n = class * restQuantum
	for len(q.chunk) < n {
		if q.next == len(q.chunks) {
			q.chunks = append(q.chunks, make([]head, max(n, min(max(q.carved, minRestChunk), maxRestChunk))))
		}
		q.chunk = q.chunks[q.next]
		q.next++
	}
	r := q.chunk[:0:n]
	q.chunk = q.chunk[n:]
	q.carved += n
	return r
}

// release recycles an exhausted block's rest array.
func (q *blockQueue) release(r []head) {
	class := cap(r) / restQuantum
	for len(q.free) <= class {
		q.free = append(q.free, nil)
	}
	q.free[class] = append(q.free[class], r[:0])
}

// Insert implements pqueue.Queue for a pair that stands for itself: a seed,
// a re-queued exact pair, or a pair of an expansion generated pair by pair.
func (q *blockQueue) Insert(p qpair) error {
	q.push(q.single(p))
	q.n++
	q.m.Push(q.n, len(q.heads))
	return nil
}

// Pop implements pqueue.Queue. A block's next child takes the popped head's
// place, uncounted, before the pair is returned: whatever the caller does
// with it — peek at the queue, fail — finds the queue whole.
func (q *blockQueue) Pop() (qpair, bool, error) {
	if len(q.heads) == 0 {
		return qpair{}, false, nil
	}
	q.m.Pop()
	q.n--
	top := q.heads[0]
	p := q.pair(top)
	if id := top.id; id&single != 0 {
		q.singles[id&^single] = qpair{}
		q.freeSingles = append(q.freeSingles, id&^single)
	} else if b := &q.blocks[id]; len(b.rest) > 0 {
		q.heads[0], b.rest = q.takeMin(b, b.rest)
		q.heads[0].id = id
		q.down()
		return p, true, nil
	} else { // the block's last child
		q.release(b.rest)
		*b = block{}
		q.freeIDs = append(q.freeIDs, id)
	}
	last := len(q.heads) - 1
	q.heads[0], q.heads = q.heads[last], q.heads[:last]
	if last > 0 {
		q.down()
	}
	return p, true, nil
}

// Peek implements pqueue.Queue.
func (q *blockQueue) Peek() (qpair, bool, error) {
	if len(q.heads) == 0 {
		return qpair{}, false, nil
	}
	return q.pair(q.heads[0]), true, nil
}

// Len implements pqueue.Queue: the number of pairs queued.
func (q *blockQueue) Len() int { return q.n }

// Close implements pqueue.Queue: the queue's storage goes to the next queue.
func (q *blockQueue) Close() error {
	if st := q.blockStore; st != nil {
		q.blockStore = nil
		st.recycle()
	}
	return nil
}
