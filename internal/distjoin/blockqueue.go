package distjoin

import (
	"encoding/binary"
	"math"
	"unsafe"

	"distjoin/internal/meter"
	"distjoin/internal/pqueue"
)

// blockQueue is the engine's queue: an implicit 4-ary min-heap of
// 16-byte heads, ONE per node expansion instead of one per generated pair.
// The join is, per outer item, an incremental nearest-neighbour search: of
// the children an expansion generates only the nearest remaining one has to
// be ordered against the rest of the queue. So the surviving children of an
// expansion are collected as (key, entry index), and the expansion ends by
// pushing a head for its smallest child — by key, then tieOrder.before —
// that names a block holding the siblings, unordered. A pair that stands for
// itself (a seed, an Insert, an expansion's lone child) is a single, kept in
// a slab. A pair is materialised only when popped or peeked; popping a
// block's head overwrites the top with the block's next-smallest child (a
// linear scan of at most fan-out entries) and sifts it down once.
//
// Invariant: a block's head is its minimum — every child in a block's rest
// follows, in queue order, the child of that block currently in the
// heap. The heap's minimum is therefore the minimum of every pair the queue
// stands for, and the popped sequence is exactly the one a heap of all of
// them would give.
//
// Len, and the sizes reported to the meter's Push, are in pairs; the heap's
// own length is reported beside them as elements.
//
// On the hybrid queue (§3.2) the heap holds only the buckets ⌊key/D_T⌋
// below the list tier's: an expansion's other children go to the list tier
// as a block that owns copies of them, or to the disk tier as records, one
// per radix class (tier); the tiers advance when the heap drains (ready).
type blockQueue struct {
	m          *meter.Meter
	depthFirst bool
	sign       float64 // -1 under Reverse: heads hold keys times sign

	n int // pairs the queue stands for: heads, blocks' rests, pend, list and disk

	disk        *pqueue.Tier  // the hybrid queue's disk tier; nil on the memory queue
	w           int           // coordinates of a rectangle its records hold
	arenas      [2]*IndexNode // the leaf and non-leaf arena nodes in use (arena)
	fresh, kept int           // arenas made since the last retier, and those it filled

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

	// list is the hybrid queue's list tier: the heads of blocks that own the
	// list bucket's children, waiting outside the heap. spare, moved and rec are
	// tier's, retier's and the record encoder's scratch.
	list         []head
	spare, moved []head
	rec          []byte

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
	s.blocks, s.freeIDs, s.pend, s.list = s.blocks[:0], s.freeIDs[:0], s.pend[:0], s.list[:0]
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
// pair they stand on, and the kind its leaf entries take. On the memory
// queue it pins the decoded node, as the item views of per-pair queueing
// pinned its coordinate block; on the hybrid queue, whose memory tiers hold
// a few children of many nodes, its node is an arena that holds copies of
// them and of the opposite item (own, load).
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

// before is the queue order on the pairs two heads stand for — key, then
// tieOrder.before; a tie of keys is settled from the singles and blocks
// without building either pair.
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
// of block b) in queue order, returning the rest in no particular order.
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

// end closes the open expansion. On the hybrid queue, its children beyond
// the heap's buckets go to the other tiers first; those left — all of them
// on the memory queue — enter the heap.
func (q *blockQueue) end() error {
	entries, again, err := q.pend, false, error(nil)
	switch {
	case q.disk == nil:
	case q.disk.DT() > 0:
		entries, err = q.tier(&q.cur, entries)
		again = q.fresh > 2*q.kept+4
	default:
		for i := 0; i < len(entries) && !again; i++ {
			again = q.disk.Sample(entries[i].key) // true once D_T is fixed
		}
	}
	q.enter(&q.cur, entries, false)
	q.cur, q.pend = block{}, q.pend[:0]
	if err == nil && again {
		err = q.retier()
	}
	return err
}

// enter puts children of expansion b under the heap, or with list set in
// the hybrid queue's list tier: the smallest heads a block of the others, or
// stands as a single when it is alone on the memory queue (the hybrid queue
// keeps none: a single would not own what it holds).
func (q *blockQueue) enter(b *block, entries []head, list bool) {
	switch {
	case len(entries) == 1 && q.disk == nil:
		q.push(q.single(b.pair(q.sign*entries[0].key, int(entries[0].idx))))
	case len(entries) > 0:
		first, others := q.takeMin(b, entries)
		b.rest = append(q.alloc(len(others)), others...)
		if first.id = keep(&q.blocks, &q.freeIDs, *b); list {
			q.list = append(q.list, first)
		} else {
			q.push(first)
		}
	}
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

// Insert queues a pair that stands for itself: a seed, a re-queued exact
// pair, or a pair of an expansion generated pair by pair. On the memory
// queue it is a single; on the hybrid queue, whose blocks own what they
// hold, the one child of an expansion of its own.
func (q *blockQueue) Insert(p qpair) error {
	if q.disk == nil {
		q.n++
		q.m.Push(q.n, len(q.heads)+1)
		q.push(q.single(p))
		return nil
	}
	if err := q.disk.Err(); err != nil {
		return err
	}
	n := q.arena(p.i1.kind != kindNode, 1)
	idx, c := q.entry(n, p.i1.ref, p.i1.level)
	copy(c, p.i1.c)
	q.begin(p.i2, n, 1, p.i1.kind)
	q.collect(p.key, int(idx))
	return q.end()
}

// Pop removes and returns the least pair. A block's next child takes the
// popped head's place, uncounted, before the pair is returned: whatever the
// caller does with it — peek at the queue, fail — finds the queue whole.
func (q *blockQueue) Pop() (qpair, bool, error) {
	if q.disk != nil {
		if err := q.ready(); err != nil {
			return qpair{}, false, err
		}
	}
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

// Peek returns the least pair without removing it.
func (q *blockQueue) Peek() (qpair, bool, error) {
	if q.disk != nil {
		if err := q.ready(); err != nil {
			return qpair{}, false, err
		}
	}
	if len(q.heads) == 0 {
		return qpair{}, false, nil
	}
	return q.pair(q.heads[0]), true, nil
}

// Len returns the number of pairs queued.
func (q *blockQueue) Len() int { return q.n }

// Close hands the queue's storage to the next queue and releases the hybrid
// queue's disk tier.
func (q *blockQueue) Close() error {
	if st := q.blockStore; st != nil {
		q.blockStore = nil
		st.recycle()
		if q.disk != nil {
			return q.disk.Close()
		}
	}
	return nil
}

// A disk record of the hybrid queue is one expansion's children of one radix
// class (DESIGN.md §5): a header — the opposite item's rectangle, ref, kind
// and level, its side, the children's kind, pointBit set when every child is
// a point — then per child its key, ref and a point's coordinates once or a
// level and a rectangle. recordHeader and recordItem are their widths.
const pointBit = 1 << 7

func recordHeader(w int) int { return 8*w + 12 }

func recordItem(w int, points bool) int {
	if points {
		return 16 + 4*w
	}
	return 17 + 8*w
}

// putHeader appends a record's header.
func putHeader(dst []byte, other item, side uint8, kind itemKind, points bool) []byte {
	if points {
		kind |= pointBit
	}
	dst = putCoords(dst, other.c)
	dst = binary.LittleEndian.AppendUint64(dst, other.ref)
	return append(dst, byte(other.kind), byte(other.level), side, byte(kind))
}

// putItem appends child c under key.
func putItem(dst []byte, key float64, c item, point bool) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(key))
	dst = binary.LittleEndian.AppendUint64(dst, c.ref)
	if point {
		return putCoords(dst, c.c[:len(c.c)/2])
	}
	return putCoords(append(dst, byte(c.level)), c.c)
}

// isPoints reports whether every rectangle of w coordinates in c is a point
// bit for bit, so that its low corner alone loses nothing.
func isPoints(c []float64, w int) bool {
	for i := 0; i < len(c); i += w {
		for j := i; j < i+w/2; j++ {
			if math.Float64bits(c[j]) != math.Float64bits(c[j+w/2]) {
				return false
			}
		}
	}
	return true
}

func putCoords(dst []byte, c []float64) []byte {
	for _, v := range c {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func getCoords(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// tier splits the children of expansion b by bucket against the list tier's
// bucket last: those of last enter the list tier as one block that owns
// them, those beyond spill as one record per radix class, written from the
// node's coordinate block, and the others are returned, b made to own them.
func (q *blockQueue) tier(b *block, entries []head) ([]head, error) {
	n, last, w := b.node, q.disk.Last(), q.w
	stay, list, spilling, points := entries[:0], q.spare[:0], false, false
	var ph meter.Phase
	for _, e := range entries {
		switch i := q.disk.Bucket(e.key); {
		case i < last:
			stay = append(stay, e)
		case i == last:
			list = append(list, e)
		default:
			c := childItem(n, int(e.idx), w, b.kind)
			if !spilling {
				points = n.Leaf && n.Points && isPoints(n.Coords, w)
				q.rec = putHeader(q.rec[:0], b.other, b.side, c.kind, points)
				spilling, ph = true, q.m.Begin(meter.PhaseSpill)
				q.disk.Begin(q.rec, recordItem(w, points))
			}
			dst, err := q.disk.Put(i)
			if err != nil {
				q.m.End(ph)
				return stay, err
			}
			putItem(dst[:0], e.key, c, points)
		}
	}
	if spilling {
		q.m.End(ph)
	}
	if len(list) > 0 {
		o := q.own(b, list)
		q.enter(&o, list, true)
	}
	q.spare = list[:0]
	if len(stay) > 0 {
		*b = q.own(b, stay)
	}
	return stay, nil
}

// arenaEntries is how many entries an arena node holds (at least).
const arenaEntries = 128

// arena returns an arena node of the given leafness with room for k more
// entries: the hybrid queue's memory tiers keep copies of what they hold in
// arena nodes, filled in turn and never grown, so an entry stays where a
// pair viewing it was given it.
func (q *blockQueue) arena(leaf bool, k int) *IndexNode {
	a := &q.arenas[0]
	if !leaf {
		a = &q.arenas[1]
	}
	if *a == nil || cap((*a).Refs)-len((*a).Refs) < k {
		q.fresh++
		c := max(k, arenaEntries)
		buf := make([]float64, c*q.w+c+(c+7)/8) // coordinates, refs and levels in one allocation
		*a = &IndexNode{Leaf: leaf, Coords: buf[: 0 : c*q.w], Refs: unsafe.Slice((*uint64)(unsafe.Pointer(&buf[c*q.w])), c)[:0]}
		if !leaf {
			(*a).Levels = unsafe.Slice((*int8)(unsafe.Pointer(&buf[c*q.w+c])), c)[:0]
		}
	}
	return *a
}

// entry adds an entry of ref and level to arena node a, returning its index
// and its coordinates, to be filled in.
func (q *blockQueue) entry(a *IndexNode, ref uint64, level int8) (int32, []float64) {
	j := len(a.Refs)
	a.Refs = append(a.Refs, ref)
	if !a.Leaf {
		a.Levels = append(a.Levels, level)
	}
	a.Coords = a.Coords[:(j+1)*q.w]
	return int32(j), a.Coords[j*q.w : (j+1)*q.w : (j+1)*q.w]
}

// own returns a block like b that owns copies of its opposite item and of
// the children entries name, renumbering entries to them: a view would keep
// a whole node alive for a few children (DESIGN.md §5).
func (q *blockQueue) own(b *block, entries []head) block {
	n, o := b.node, block{other: b.other, side: b.side, kind: b.kind}
	o.node = q.arena(n.Leaf, 1+len(entries))
	_, o.other.c = q.entry(o.node, 0, 0)
	copy(o.other.c, b.other.c)
	for j, e := range entries {
		it := childItem(n, int(e.idx), q.w, b.kind)
		idx, c := q.entry(o.node, it.ref, it.level)
		copy(c, it.c)
		entries[j].idx = idx
	}
	return o
}

// load enters a record's children of the list tier's bucket (items, under
// header hdr) in the list tier as a block that owns them, rebuilt from the
// bytes alone: nothing re-reads the index.
func (q *blockQueue) load(hdr, items []byte) {
	w := q.w
	kind, points := itemKind(hdr[8*w+11]&^pointBit), hdr[8*w+11]&pointBit != 0
	size := recordItem(w, points)
	n := q.arena(kind != kindNode, 1+len(items)/size)
	b := block{other: item{ref: binary.LittleEndian.Uint64(hdr[8*w:]), kind: itemKind(hdr[8*w+8]), level: int8(hdr[8*w+9])}, node: n, side: hdr[8*w+10], kind: kind}
	_, b.other.c = q.entry(n, 0, 0)
	getCoords(b.other.c, hdr)
	rest := q.spare[:0]
	for ; len(items) > 0; items = items[size:] {
		ref, level := binary.LittleEndian.Uint64(items[8:]), int8(items[16])
		idx, c := q.entry(n, ref, level)
		if points {
			getCoords(c[:w/2], items[16:])
			copy(c[w/2:], c[:w/2])
		} else {
			getCoords(c, items[17:])
		}
		rest = append(rest, head{key: q.sign * math.Float64frombits(binary.LittleEndian.Uint64(items)), idx: idx})
	}
	q.enter(&b, rest, true)
	q.spare = rest[:0]
}

// retier sends what the memory tiers hold through tier again, into fresh
// arenas: once an adaptive queue has fixed D_T, since the heap must hold
// exactly the buckets below the list tier's; and whenever the arenas made
// since the last retier outnumber twice those it filled plus four (end), so
// the arenas in use stay within a small multiple of what is queued. A pair
// popped before keeps its view of an old arena, which is never reused.
func (q *blockQueue) retier() error {
	hs := append(append(q.moved[:0], q.heads...), q.list...)
	q.heads, q.list, q.arenas, q.fresh = q.heads[:0], q.list[:0], [2]*IndexNode{}, 0
	for _, h := range hs { // blocks only: the hybrid queue keeps no singles
		b := q.blocks[h.id]
		q.blocks[h.id] = block{}
		q.freeIDs = append(q.freeIDs, h.id)
		entries := append(append(q.pend[:0], b.rest...), h)
		q.release(b.rest)
		entries, err := q.tier(&b, entries)
		q.enter(&b, entries, false)
		q.pend = entries[:0]
		if err != nil {
			return err
		}
	}
	q.kept, q.fresh, q.moved = q.fresh, 0, hs[:0]
	return nil
}

// ready readies the hybrid queue for a pop or a peek: a poisoned disk tier
// returns its error, and a drained heap is refilled (paper §3.2) — the list
// tier poured into it and the disk tier's next bucket made the list —
// bracketed as the fetch phase.
func (q *blockQueue) ready() error {
	if err := q.disk.Err(); err != nil || len(q.heads) > 0 || (len(q.list) == 0 && q.disk.Len() == 0) {
		return err
	}
	ph := q.m.Begin(meter.PhaseFetch)
	defer q.m.End(ph)
	q.m.Fetch()
	for len(q.heads) == 0 && (len(q.list) > 0 || q.disk.Len() > 0) {
		for _, h := range q.list {
			q.push(h)
		}
		q.list = q.list[:0]
		if err := q.disk.Advance(); err != nil {
			return err
		}
	}
	return nil
}
