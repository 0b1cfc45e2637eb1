package pqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"

	"distjoin/internal/meter"
	"distjoin/internal/pager"
	"distjoin/internal/pairheap"
)

// Codec serializes queue elements for the disk tier. Elements must have a
// fixed encoded size (join pairs do: two rectangles, two references and a
// few flags).
type Codec[T any] interface {
	// Size returns the fixed encoded size in bytes.
	Size() int
	// Encode writes v into dst, which is Size() bytes long.
	Encode(dst []byte, v T)
	// Decode reads an element from src, which is Size() bytes long.
	Decode(src []byte) T
}

// Owner is optionally implemented by a Codec whose elements may hold views
// of memory they share with other structures (the join's pairs view blocks of
// index-node coordinates). The queue passes every element it keeps in memory
// rather than spills through Own, which returns it holding its own copy: the
// memory tiers of a queue that exists to be small then pin nothing but
// themselves.
type Owner[T any] interface {
	Own(v T) T
}

// Keyer is optionally implemented by a Codec that can read an element's key
// out of its encoded form. When the disk tier moves spilled records between
// classes it needs only their key, and asks a Keyer for it instead of
// decoding the whole element — a decoded join pair allocates its coordinates,
// a re-routed record is copied as bytes and allocates nothing. Key(src) must
// equal the queue's key(Decode(src)).
type Keyer interface {
	Key(src []byte) float64
}

// HybridConfig configures a HybridQueue.
type HybridConfig struct {
	// DT is the fixed distance increment of the paper's scheme. Distances
	// fall into buckets [i·DT, (i+1)·DT); the list tier holds one bucket,
	// the heap every bucket below it, the disk tier every bucket beyond.
	// Initially the heap holds distances < DT and the list [DT, 2·DT). DT
	// sizes the two memory tiers only: a spilled pair costs 1/perPage page
	// writes however many buckets the disk tier spans.
	// Required unless Adaptive is set.
	DT float64
	// Adaptive, when set, derives DT from the distance distribution of the
	// first AdaptiveSample insertions instead of requiring a tuned
	// constant — the dynamic-partitioning direction the paper lists as
	// future work (§5). Until DT is determined, all elements stay in the
	// heap.
	Adaptive bool
	// AdaptiveSample is the number of insertions observed before fixing
	// DT. Defaults to 4096.
	AdaptiveSample int
	// PageSize is the page size of the disk tier (default 4096).
	PageSize int
	// Dir is where the backing scratch file is created when Store is nil.
	// Empty means the default temp directory. Set Store to use an
	// in-memory "disk" (useful in tests and for deterministic benches).
	Dir string
	// Store overrides the disk-tier page store.
	Store pager.Store
	// Meter is the owning engine's telemetry: the queue reports pushes,
	// pops, spills (as their own phase), bucket fetches and every page it
	// reads from or writes to its store. May be nil (no accounting, no
	// clock reads at all).
	Meter *meter.Meter
}

// HybridQueue is the paper's three-tier queue. The ordering is determined by
// less; key extracts the distance used for tier placement. less must be
// consistent with key: key(a) < key(b) implies less(a, b).
//
// The disk tier is a radix heap over bucket indices. The queue is monotone —
// the join never inserts below the pair it last popped — so with last the
// list tier's bucket, a spilled pair of bucket i > last goes to class
// bits.Len(i XOR last): one chain of sealed full pages in the store plus one
// tail page in memory, whatever the number of buckets the class spans. When
// heap and list drain, the lowest populated class is emptied: its smallest
// bucket becomes the list tier and the rest of it moves, as encoded bytes,
// into strictly lower classes. Memory is one page per populated class.
type HybridQueue[T any] struct {
	less  func(a, b T) bool
	key   func(T) float64
	codec Codec[T]
	own   func(T) T            // the codec's Own, or nil
	keyOf func([]byte) float64 // the codec's Key, or nil
	cfg   HybridConfig

	heap *pairheap.Heap[T]
	list []T
	// last is the list tier's bucket: the heap holds buckets below it, the
	// disk tier buckets above. It moves only when the lowest class is
	// emptied (to that class's smallest bucket) or, by one, while the disk
	// tier is empty — either way no populated class changes its number.
	last int

	classes [numClasses]class
	diskLen int
	store   pager.Store
	size    int      // encoded element size
	perPage int      // elements per page
	rbuf    []byte   // the page a chain is read back through
	free    [][]byte // tail pages of emptied classes, reused
	m       *meter.Meter

	// adaptive-mode sampling
	sampled []float64

	// failed poisons the queue after the first storage error: once the
	// disk tier has failed mid-operation the in-memory bookkeeping can no
	// longer be trusted, so every later Insert/Pop/Peek returns the same
	// error instead of silently serving a truncated or misordered stream.
	failed error
}

// class is one radix class of the disk tier: the buckets i with
// bits.Len(i XOR last) equal to the class's number.
type class struct {
	head  pager.PageID // chain of sealed full pages, newest first
	tail  []byte       // the page being filled; nil until the class is first used
	n     int          // elements in tail
	count int          // elements in the class, chain and tail
	min   int          // smallest bucket among them; meaningless when count == 0
}

const (
	// maxIdx is the largest bucket index: ⌊d/DT⌋ is clamped to it, so a
	// huge (or infinite) d/DT lands in the last bucket instead of
	// overflowing int.
	maxIdx = 1<<62 - 1
	// numClasses is one more than the highest class number,
	// bits.Len(maxIdx).
	numClasses = 63
)

// Disk-tier page layout: next page (4) + count (2) + pad (2) + CRC-32C (4)
// + reserved (4), then count fixed-size encoded elements. The checksum
// covers the whole page except its own field, so torn or bit-rotted pages
// surface as ErrPageChecksum instead of decoding into garbage pairs. A page
// is sealed once, when its class's tail fills, and verified once, when its
// class is emptied.
const (
	pageHeaderSize = 16
	pageCRCOffset  = 8
)

// ErrPageChecksum reports a disk-tier page whose stored CRC-32C does not
// match its contents.
var ErrPageChecksum = errors.New("pqueue: disk page checksum mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageCRC computes the checksum of a page, skipping the CRC field itself.
func pageCRC(data []byte) uint32 {
	c := crc32.Checksum(data[:pageCRCOffset], crcTable)
	return crc32.Update(c, crcTable, data[pageCRCOffset+4:])
}

// sealPage stamps the page's checksum.
func sealPage(data []byte) {
	binary.LittleEndian.PutUint32(data[pageCRCOffset:], pageCRC(data))
}

// verifyPage checks a page read from the disk tier against its stored
// checksum.
func verifyPage(id pager.PageID, data []byte) error {
	stored := binary.LittleEndian.Uint32(data[pageCRCOffset:])
	if got := pageCRC(data); got != stored {
		return fmt.Errorf("%w: page %d (stored %08x, computed %08x)", ErrPageChecksum, id, stored, got)
	}
	return nil
}

// NewHybridQueue creates a hybrid queue. See HybridConfig for knobs.
func NewHybridQueue[T any](less func(a, b T) bool, key func(T) float64, codec Codec[T], cfg HybridConfig) (*HybridQueue[T], error) {
	if !(cfg.DT > 0) && !cfg.Adaptive {
		return nil, errors.New("pqueue: DT must be positive (or Adaptive set)")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.AdaptiveSample == 0 {
		cfg.AdaptiveSample = 4096
	}
	if codec.Size() > cfg.PageSize-pageHeaderSize {
		return nil, fmt.Errorf("pqueue: element size %d exceeds page payload %d",
			codec.Size(), cfg.PageSize-pageHeaderSize)
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = pager.NewFileStore(cfg.Dir, cfg.PageSize)
		if err != nil {
			return nil, err
		}
	}
	q := &HybridQueue[T]{
		less:    less,
		key:     key,
		codec:   codec,
		cfg:     cfg,
		heap:    pairheap.New(less),
		last:    1,
		store:   store,
		size:    codec.Size(),
		perPage: min((cfg.PageSize-pageHeaderSize)/codec.Size(), math.MaxUint16),
		m:       cfg.Meter,
	}
	if o, ok := codec.(Owner[T]); ok {
		q.own = o.Own
	}
	if k, ok := codec.(Keyer); ok {
		q.keyOf = k.Key
	}
	return q, nil
}

// DT returns the distance increment in effect (0 while an adaptive queue is
// still sampling).
func (q *HybridQueue[T]) DT() float64 { return q.cfg.DT }

// Len implements Queue.
func (q *HybridQueue[T]) Len() int { return q.heap.Len() + len(q.list) + q.diskLen }

// Insert implements Queue.
func (q *HybridQueue[T]) Insert(v T) error {
	if q.failed != nil {
		return q.failed
	}
	n := q.Len() + 1
	q.m.Push(n, n)
	d := q.key(v)
	if q.cfg.DT == 0 { // adaptive, still sampling
		q.sampled = append(q.sampled, d)
		q.heap.Insert(v)
		if len(q.sampled) >= q.cfg.AdaptiveSample {
			return q.fail(q.fixAdaptiveDT())
		}
		return nil
	}
	return q.fail(q.place(v, d))
}

// fail latches the first storage error, poisoning the queue.
func (q *HybridQueue[T]) fail(err error) error {
	if err != nil && q.failed == nil {
		q.failed = err
	}
	return err
}

// bucketOf returns the bucket of distance d: ⌊d/DT⌋ clamped into
// [0, maxIdx]. It is the queue's one classifier — tier and class both follow
// from the bucket alone, never from a second comparison against a boundary
// computed another way, so rounding cannot send an element to a tier that
// disagrees with its bucket. It is monotone in d: an element of a lower
// bucket orders strictly before every element of a higher one.
func (q *HybridQueue[T]) bucketOf(d float64) int {
	x := d / q.cfg.DT
	switch {
	case x < 1:
		return 0
	case x < maxIdx:
		return int(x)
	}
	return maxIdx // huge, +Inf or NaN
}

// place routes an element to the tier covering its distance.
func (q *HybridQueue[T]) place(v T, d float64) error {
	i := q.bucketOf(d)
	if i > q.last {
		return q.spill(v, i)
	}
	if q.own != nil {
		v = q.own(v)
	}
	if i < q.last {
		q.heap.Insert(v)
	} else {
		q.list = append(q.list, v)
	}
	return nil
}

// fixAdaptiveDT chooses DT as the sample's 1/64 quantile, then re-tiers the
// sampled elements (which all accumulated in the heap while sampling) into
// their proper tiers, since correctness requires the heap to hold exactly
// the elements below D1. The quantile is low on purpose: a join's first
// insertions are upper-level node pairs whose distances span the whole
// space, while the pops stay near zero for a long time, so a DT of their
// scale (the lower quartile, as this rule once was) sends nearly every later
// insertion to the heap — a memory queue with extra steps. The disk tier's
// cost does not depend on DT, so erring low is cheap (DESIGN.md §5).
func (q *HybridQueue[T]) fixAdaptiveDT() error {
	s := q.sampled
	q.sampled = nil
	sort.Float64s(s)
	dt := s[len(s)/64]
	if dt <= 0 {
		// Degenerate distribution (everything at distance 0): fall back to
		// the first positive sample, or keep the queue memory-only.
		for _, v := range s {
			if v > 0 {
				dt = v
				break
			}
		}
		if dt <= 0 {
			dt = 1
		}
	}
	q.cfg.DT = dt
	// Re-tier everything accumulated during sampling.
	pending := make([]T, 0, q.heap.Len())
	for !q.heap.Empty() {
		pending = append(pending, q.heap.PopMin())
	}
	for _, v := range pending {
		if err := q.place(v, q.key(v)); err != nil {
			return err
		}
	}
	return nil
}

// spill appends v to the disk tier, bracketed as its own phase.
func (q *HybridQueue[T]) spill(v T, i int) error {
	ph := q.m.Begin(meter.PhaseSpill)
	dst, err := q.slot(i)
	if err == nil {
		q.codec.Encode(dst, v)
		q.diskLen++
		q.m.Spill()
	}
	q.m.End(ph)
	return err
}

// slot returns the next free element slot of the class bucket i > last
// belongs to, writing the class's tail page out first if it is full. It is
// the one way into the disk tier, for a spilled element and a re-routed one
// alike.
func (q *HybridQueue[T]) slot(i int) ([]byte, error) {
	cl := &q.classes[bits.Len64(uint64(i^q.last))]
	switch {
	case cl.tail == nil:
		if n := len(q.free); n > 0 {
			cl.tail, q.free = q.free[n-1], q.free[:n-1]
		} else {
			cl.tail = make([]byte, q.cfg.PageSize)
		}
	case cl.n == q.perPage:
		if err := q.flush(cl); err != nil {
			return nil, err
		}
	}
	if cl.count == 0 || i < cl.min {
		cl.min = i
	}
	off := pageHeaderSize + cl.n*q.size
	cl.n++
	cl.count++
	return cl.tail[off : off+q.size], nil
}

// flush seals the class's full tail page and writes it to a new page at the
// head of the class's chain. The buffer stays the class's tail.
func (q *HybridQueue[T]) flush(cl *class) error {
	id, err := q.store.Allocate()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(cl.tail[0:], uint32(cl.head))
	binary.LittleEndian.PutUint16(cl.tail[4:], uint16(cl.n))
	sealPage(cl.tail)
	start := q.m.IOStart()
	if err := q.store.WritePage(id, cl.tail); err != nil {
		q.store.Free(id) // best effort: the page never joined the chain
		return err
	}
	q.m.PageWritten(start)
	cl.head = id
	cl.n = 0
	return nil
}

// advance empties the lowest populated class, which holds the disk tier's
// smallest bucket: that bucket becomes the list tier and the class's other
// elements move to the classes they have relative to the new last — all
// strictly lower than the one being emptied, because every bucket of a class
// shares the class's leading bit. Classes above keep their numbers. The
// bookkeeping moves page by page, so Len() stays exact wherever an error
// strikes (the caller then poisons the queue anyway).
func (q *HybridQueue[T]) advance() error {
	c := 1
	for q.classes[c].count == 0 {
		c++
	}
	cl := &q.classes[c]
	q.last = cl.min
	if err := q.route(cl.tail, cl.n); err != nil {
		return err
	}
	cl.count -= cl.n
	q.free = append(q.free, cl.tail)
	cl.tail, cl.n = nil, 0
	if cl.head != pager.InvalidPage && q.rbuf == nil {
		q.rbuf = make([]byte, q.cfg.PageSize)
	}
	for cl.head != pager.InvalidPage {
		page := cl.head
		start := q.m.IOStart()
		if err := q.store.ReadPage(page, q.rbuf); err != nil {
			return err
		}
		q.m.PageRead(start)
		if err := verifyPage(page, q.rbuf); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint16(q.rbuf[4:]))
		if err := q.route(q.rbuf, n); err != nil {
			return err
		}
		cl.count -= n
		if err := q.store.Free(page); err != nil {
			return err
		}
		cl.head = pager.PageID(binary.LittleEndian.Uint32(q.rbuf[0:]))
	}
	return nil
}

// route moves the n elements of one page of the class being emptied: those
// of the list tier's bucket are decoded into the list, the others copied as
// they are into their new class.
func (q *HybridQueue[T]) route(page []byte, n int) error {
	for off := pageHeaderSize; n > 0; n, off = n-1, off+q.size {
		rec := page[off : off+q.size]
		var d float64
		if q.keyOf != nil {
			d = q.keyOf(rec)
		} else {
			d = q.key(q.codec.Decode(rec))
		}
		if i := q.bucketOf(d); i > q.last {
			dst, err := q.slot(i)
			if err != nil {
				return err
			}
			copy(dst, rec)
		} else {
			q.list = append(q.list, q.codec.Decode(rec))
			q.diskLen--
		}
	}
	return nil
}

// refill brackets tier advancement as the fetch phase when there is
// anything to advance (an empty queue's no-op refill is not a fetch).
func (q *HybridQueue[T]) refill() error {
	if len(q.list) == 0 && q.diskLen == 0 {
		return nil
	}
	ph := q.m.Begin(meter.PhaseFetch)
	q.m.Fetch()
	err := q.doRefill()
	q.m.End(ph)
	return err
}

// doRefill advances the tiers when the heap drains: the list is poured
// into the heap and the disk tier's smallest bucket becomes the new list
// (paper §3.2: D1 := D2, D2 := D1 + DT, with empty bucket ranges skipped in
// one jump rather than one DT step at a time).
func (q *HybridQueue[T]) doRefill() error {
	for q.heap.Empty() && (len(q.list) > 0 || q.diskLen > 0) {
		for _, v := range q.list {
			q.heap.Insert(v)
		}
		clear(q.list)
		q.list = q.list[:0]
		if q.diskLen == 0 {
			q.last++
			continue
		}
		if err := q.advance(); err != nil {
			return err
		}
	}
	return nil
}

// Pop implements Queue.
func (q *HybridQueue[T]) Pop() (T, bool, error) {
	var zero T
	if q.failed != nil {
		return zero, false, q.failed
	}
	if q.heap.Empty() {
		if err := q.fail(q.refill()); err != nil {
			return zero, false, err
		}
		if q.heap.Empty() {
			return zero, false, nil
		}
	}
	q.m.Pop()
	return q.heap.PopMin(), true, nil
}

// Peek implements Queue.
func (q *HybridQueue[T]) Peek() (T, bool, error) {
	var zero T
	if q.failed != nil {
		return zero, false, q.failed
	}
	if q.heap.Empty() {
		if err := q.fail(q.refill()); err != nil {
			return zero, false, err
		}
		if q.heap.Empty() {
			return zero, false, nil
		}
	}
	return q.heap.Min(), true, nil
}

// CheckStore verifies the disk tier's page conservation: the pages
// allocated in the store are exactly those linked from the class chains, so
// a drained queue holds none. It reads every chained page (unmetered) and
// is meant for tests, which call it on a quiescent queue — after a
// cancellation, say.
func (q *HybridQueue[T]) CheckStore() error {
	buf := make([]byte, q.cfg.PageSize)
	linked := 0
	for c := range q.classes {
		for id := q.classes[c].head; id != pager.InvalidPage; linked++ {
			if err := q.store.ReadPage(id, buf); err != nil {
				return err
			}
			if err := verifyPage(id, buf); err != nil {
				return err
			}
			id = pager.PageID(binary.LittleEndian.Uint32(buf[0:]))
		}
	}
	if n := q.store.NumAllocated(); n != linked {
		return fmt.Errorf("pqueue: store holds %d pages, class chains link %d", n, linked)
	}
	return nil
}

// Close implements Queue.
func (q *HybridQueue[T]) Close() error { return q.store.Close() }
