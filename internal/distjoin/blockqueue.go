package distjoin

import (
	"distjoin/internal/meter"
	"distjoin/internal/pairheap"
)

// blockQueue is the engine's memory queue: a pairing heap that holds ONE
// element per node expansion instead of one per generated pair. The join
// is, per outer item, an incremental nearest-neighbour search: of the
// children an expansion generates only the nearest remaining one has to be
// ordered against the rest of the queue. So the surviving children of an
// expansion are collected as (key, entry index) and the expansion ends by
// inserting its smallest child — under the full pairLess order — as an
// ordinary qpair that carries the id of a block holding the siblings,
// unordered. Popping such a head first puts the block's next-smallest child
// into the heap in its place (a linear scan of at most fan-out entries; most
// blocks are never advanced), then returns the head with the id cleared.
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
	heap                *pairheap.Heap[qpair]
	m                   *meter.Meter
	depthFirst, reverse bool

	n int // pairs the queue stands for: heap elements, blocks' rests, and pend

	// The open expansion (cur.node is nil when none is open); the store's
	// pend collects its surviving children in generation order until end
	// picks the head.
	cur block

	*blockStore // nil once the queue is closed
}

// blockStore is the memory a block queue works in. It outlives the queue:
// Close hands it to freeStores and the next query's queue starts in it. A
// query's queue storage is garbage the moment the query closes — half of
// what a first-page query allocates — and with it the collector ran once
// every other such query, so whether a query met a collection, not the
// query, decided what it cost. Recycled, a repeated query allocates no
// queue storage at all.
type blockStore struct {
	// blocks[id-1] is block id; freed ids are reused. A block lives while
	// its rest is non-empty: its last child is queued standing for itself.
	blocks  []block
	freeIDs []uint32
	pend    []blockEntry

	// Storage of the blocks' rest arrays: carved from pointer-free chunks in
	// multiples of restQuantum entries, recycled through one free list per
	// size when a block is exhausted, so the storage a drain holds follows
	// the peak of what is queued, not the total ever queued.
	chunks [][]blockEntry // every chunk owned; chunks[:next] have been carved from
	next   int
	chunk  []blockEntry // what is left of chunks[next-1]
	free   [][][]blockEntry
	carved int // entries carved from chunks so far
}

// freeStores holds the stores of closed queues: room for two, so two
// cursors that take turns on a shared index both find one. Not a sync.Pool:
// what one P puts back another P does not find, and whether the next query
// started in a used store would depend on where the scheduler ran it.
var freeStores = make(chan *blockStore, 2)

// maxFreeEntries is the most chunk storage (32 MiB) a store may own and
// still be kept: what one huge drain needed does not stay with a process
// whose other queries are small. The blocks table is bounded with it (a
// block owns at least restQuantum entries).
const maxFreeEntries = 1 << 21

func newBlockStore() *blockStore {
	select {
	case s := <-freeStores:
		return s
	default:
		return new(blockStore)
	}
}

// recycle offers the store of a closed queue to the next one. Blocks pin
// decoded nodes, so the table is cleared; the chunks hold no pointers and
// are reused as they are.
func (s *blockStore) recycle() {
	owned := 0
	for _, c := range s.chunks {
		owned += len(c)
	}
	if owned > maxFreeEntries {
		return
	}
	clear(s.blocks)
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

// blockEntry is one child waiting in a block: its queue key and its entry
// index in the block's node.
type blockEntry struct {
	key float64
	idx int32
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
	rest  []blockEntry
}

const (
	restQuantum  = 4       // rest capacities are multiples of this many entries
	minRestChunk = 1 << 10 // entries in a query's first storage chunk
	maxRestChunk = 1 << 14 // chunks double up to this many entries (256 KiB)
)

func newBlockQueue(depthFirst, reverse bool, m *meter.Meter) *blockQueue {
	return &blockQueue{heap: pairheap.NewInPlace(pairLessInPlace(depthFirst, reverse)), m: m, depthFirst: depthFirst, reverse: reverse, blockStore: newBlockStore()}
}

// pair materialises child c of the block as a queue pair heading block id
// (0: standing for itself alone).
func (b *block) pair(c blockEntry, id uint32) qpair {
	p := qpair{key: c.key, i1: childItem(b.node, int(c.idx), len(b.other.c), b.kind), i2: b.other}
	if b.side == 2 {
		p.i1, p.i2 = p.i2, p.i1
	}
	p.i1.blk = id
	return p
}

// takeMin removes and returns the smallest of entries (non-empty) under
// pairLess, returning the rest in no particular order. The entries are
// children of node n paired with the same opposite item, and siblings are
// all nodes or all leaf entries: the order is by key, then — on the rare tie
// — by child level, then child ref.
func (q *blockQueue) takeMin(n *IndexNode, entries []blockEntry) (blockEntry, []blockEntry) {
	m, key := 0, entries[0].key
	for i := 1; i < len(entries); i++ {
		if k := entries[i].key; k != key {
			if (k < key) != q.reverse {
				m, key = i, k
			}
		} else if q.tieBefore(n, entries[i].idx, entries[m].idx) {
			m = i
		}
	}
	least, last := entries[m], len(entries)-1
	entries[m] = entries[last]
	return least, entries[:last]
}

// tieBefore orders entries a and b of node n at equal keys.
func (q *blockQueue) tieBefore(n *IndexNode, a, b int32) bool {
	if n.Leaf {
		return n.Objects[a].ID < n.Objects[b].ID
	}
	ca, cb := &n.Children[a], &n.Children[b]
	if la, lb := int8(ca.Level), int8(cb.Level); la != lb {
		if q.depthFirst {
			return la < lb
		}
		return la > lb
	}
	return ca.Ref < cb.Ref
}

// begin opens an expansion: until end, collect takes the surviving
// children of node n, each paired with other on the opposite side.
func (q *blockQueue) begin(other item, n *IndexNode, side int, leafKind itemKind) {
	q.cur = block{other: other, node: n, side: uint8(side), kind: leafKind}
}

// collect queues entry idx of the open expansion's node under key. It is
// the logical insertion: counted, and sized in pairs.
func (q *blockQueue) collect(key float64, idx int) {
	q.pend = append(q.pend, blockEntry{key: key, idx: int32(idx)})
	q.n++
	q.m.Push(q.n, q.heap.Len()+1)
}

// end closes the open expansion: its smallest collected child enters the
// heap, heading a block of the others.
func (q *blockQueue) end() {
	b := q.cur
	q.cur = block{}
	if len(q.pend) == 0 {
		return
	}
	head, others := q.takeMin(b.node, q.pend)
	var id uint32
	if len(others) > 0 {
		b.rest = append(q.alloc(len(others)), others...)
		if k := len(q.freeIDs); k > 0 {
			id, q.freeIDs = q.freeIDs[k-1], q.freeIDs[:k-1]
			q.blocks[id-1] = b
		} else {
			q.blocks = append(q.blocks, b)
			id = uint32(len(q.blocks))
		}
	}
	q.pend = q.pend[:0]
	q.heap.Insert(b.pair(head, id))
}

// advance replaces the popped head of block id by the block's next child.
// The re-insertion is the queue's own business: it is not counted.
func (q *blockQueue) advance(id uint32) {
	b := &q.blocks[id-1]
	next, rest := q.takeMin(b.node, b.rest)
	b.rest = rest
	if len(rest) > 0 {
		q.heap.Insert(b.pair(next, id))
		return
	}
	p := b.pair(next, 0)
	q.release(rest)
	*b = block{}
	q.freeIDs = append(q.freeIDs, id)
	q.heap.Insert(p)
}

// alloc returns an empty rest array with room for n entries.
func (q *blockQueue) alloc(n int) []blockEntry {
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
			q.chunks = append(q.chunks, make([]blockEntry, max(n, min(max(q.carved, minRestChunk), maxRestChunk))))
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
func (q *blockQueue) release(r []blockEntry) {
	class := cap(r) / restQuantum
	for len(q.free) <= class {
		q.free = append(q.free, nil)
	}
	q.free[class] = append(q.free[class], r[:0])
}

// Insert implements pqueue.Queue for a pair that stands for itself: a seed,
// a re-queued exact pair, or a pair of an expansion generated pair by pair.
func (q *blockQueue) Insert(p qpair) error {
	q.heap.Insert(p)
	q.n++
	q.m.Push(q.n, q.heap.Len())
	return nil
}

// Pop implements pqueue.Queue. A popped block head is replaced in the heap
// before it is returned: whatever the caller does with it — peek at the
// queue, fail — finds the queue whole.
func (q *blockQueue) Pop() (qpair, bool, error) {
	if q.heap.Empty() {
		return qpair{}, false, nil
	}
	q.m.Pop()
	p := q.heap.PopMin()
	q.n--
	if id := p.i1.blk; id != 0 {
		q.advance(id)
		p.i1.blk = 0
	}
	return p, true, nil
}

// Peek implements pqueue.Queue.
func (q *blockQueue) Peek() (qpair, bool, error) {
	if q.heap.Empty() {
		return qpair{}, false, nil
	}
	p := q.heap.Min()
	p.i1.blk = 0
	return p, true, nil
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
