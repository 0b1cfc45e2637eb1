package pqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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

// HybridConfig configures a HybridQueue.
type HybridConfig struct {
	// DT is the fixed distance increment of the paper's scheme: the heap
	// holds distances < D1, the list [D1, D2), disk buckets
	// [k·DT, (k+1)·DT) beyond. Initially D1 = DT and D2 = 2·DT.
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
	// Frames is the buffer-pool capacity for the disk tier (default 16).
	Frames int
	// Meter is the owning engine's telemetry: the queue reports pushes,
	// pops, spills (as their own phase) and bucket fetches to it, and the
	// disk tier's buffer pool its physical page I/O. May be nil (no
	// accounting, no clock reads at all).
	Meter *meter.Meter
}

// HybridQueue is the paper's three-tier queue. The ordering is determined by
// less; key extracts the distance used for tier placement. less must be
// consistent with key: key(a) < key(b) implies less(a, b).
type HybridQueue[T any] struct {
	less  func(a, b T) bool
	key   func(T) float64
	codec Codec[T]
	own   func(T) T // the codec's Own, or nil
	cfg   HybridConfig

	heap *pairheap.Heap[T]
	list []T
	d1   float64
	d2   float64

	buckets map[int]*bucket // disk tier, by distance bucket index
	diskLen int
	pool    *pager.Pool
	perPage int
	m       *meter.Meter

	// adaptive-mode sampling
	sampled []float64

	// failed poisons the queue after the first storage error: once the
	// disk tier has failed mid-operation the in-memory bookkeeping can no
	// longer be trusted, so every later Insert/Pop/Peek returns the same
	// error instead of silently serving a truncated or misordered stream.
	failed error
}

// bucket is one linked page list of the disk tier.
type bucket struct {
	head  pager.PageID
	count int // total elements in the bucket
}

// Disk-tier page layout: next page (4) + count (2) + pad (2) + CRC-32C (4)
// + reserved (4), then count fixed-size encoded elements. The checksum
// covers the whole page except its own field, so torn or bit-rotted pages
// surface as ErrPageChecksum instead of decoding into garbage pairs.
const (
	bucketHeaderSize = 16
	pageCRCOffset    = 8
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

// sealPage stamps the page's checksum; call after every mutation, before
// the frame is unpinned.
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
	if cfg.Frames == 0 {
		cfg.Frames = 16
	}
	if cfg.AdaptiveSample == 0 {
		cfg.AdaptiveSample = 4096
	}
	if codec.Size() > cfg.PageSize-bucketHeaderSize {
		return nil, fmt.Errorf("pqueue: element size %d exceeds page payload %d",
			codec.Size(), cfg.PageSize-bucketHeaderSize)
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = pager.NewFileStore(cfg.Dir, cfg.PageSize)
		if err != nil {
			return nil, err
		}
	}
	pool, err := pager.NewPool(store, cfg.Frames, cfg.Meter.QueueIO())
	if err != nil {
		return nil, err
	}
	q := &HybridQueue[T]{
		less:    less,
		key:     key,
		codec:   codec,
		cfg:     cfg,
		heap:    pairheap.New(less),
		buckets: make(map[int]*bucket),
		pool:    pool,
		perPage: (cfg.PageSize - bucketHeaderSize) / codec.Size(),
		m:       cfg.Meter,
	}
	if o, ok := codec.(Owner[T]); ok {
		q.own = o.Own
	}
	if !cfg.Adaptive {
		q.d1 = cfg.DT
		q.d2 = 2 * cfg.DT
	} else {
		q.d1 = math.Inf(1)
		q.d2 = math.Inf(1)
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
	defer q.m.Push(q.Len() + 1)
	d := q.key(v)
	if q.cfg.Adaptive && q.cfg.DT == 0 {
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

// place routes an element to the tier covering its distance.
func (q *HybridQueue[T]) place(v T, d float64) error {
	if d >= q.d2 {
		return q.spill(v, d)
	}
	if q.own != nil {
		v = q.own(v)
	}
	if d < q.d1 {
		q.heap.Insert(v)
	} else {
		q.list = append(q.list, v)
	}
	return nil
}

// fixAdaptiveDT chooses DT so that roughly a quarter of the sampled
// distances fall below D1, then re-tiers the sampled elements (which all
// accumulated in the heap while sampling) into their proper tiers, since
// correctness requires the heap to hold exactly the elements below D1.
func (q *HybridQueue[T]) fixAdaptiveDT() error {
	s := append([]float64(nil), q.sampled...)
	sort.Float64s(s)
	dt := s[len(s)/4]
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
	q.d1 = dt
	q.d2 = 2 * dt
	q.sampled = nil
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

// spill brackets the disk-tier append as its own phase.
func (q *HybridQueue[T]) spill(v T, d float64) error {
	ph := q.m.Begin(meter.PhaseSpill)
	err := q.doSpill(v, d)
	q.m.End(ph)
	return err
}

// doSpill appends v to the disk bucket covering distance d.
func (q *HybridQueue[T]) doSpill(v T, d float64) error {
	idx := int(d / q.cfg.DT)
	b := q.buckets[idx]
	if b == nil {
		b = &bucket{}
		q.buckets[idx] = b
	}
	size := q.codec.Size()
	// Append into the head page if it has room; otherwise chain a new page.
	if b.head != pager.InvalidPage {
		f, err := q.pool.Get(b.head)
		if err != nil {
			return err
		}
		if err := verifyPage(b.head, f.Data()); err != nil {
			q.pool.Unpin(f)
			return err
		}
		n := int(binary.LittleEndian.Uint16(f.Data()[4:]))
		if n < q.perPage {
			q.codec.Encode(f.Data()[bucketHeaderSize+n*size:], v)
			binary.LittleEndian.PutUint16(f.Data()[4:], uint16(n+1))
			sealPage(f.Data())
			f.MarkDirty()
			q.pool.Unpin(f)
			b.count++
			q.noteSpill()
			return nil
		}
		q.pool.Unpin(f)
	}
	f, err := q.pool.Allocate()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(f.Data()[0:], uint32(b.head))
	binary.LittleEndian.PutUint16(f.Data()[4:], 1)
	q.codec.Encode(f.Data()[bucketHeaderSize:], v)
	sealPage(f.Data())
	f.MarkDirty()
	b.head = f.ID()
	q.pool.Unpin(f)
	b.count++
	q.noteSpill()
	return nil
}

// noteSpill records one pair landing on the disk tier.
func (q *HybridQueue[T]) noteSpill() {
	q.diskLen++
	q.m.Spill()
}

// loadBucket reads and frees every page of bucket idx, appending the
// elements to the in-memory list. Bookkeeping is advanced page by page so
// that a failure mid-chain leaves Len() consistent with what was actually
// recovered (the caller then poisons the queue anyway).
func (q *HybridQueue[T]) loadBucket(idx int) error {
	b := q.buckets[idx]
	if b == nil {
		return nil
	}
	size := q.codec.Size()
	for b.head != pager.InvalidPage {
		page := b.head
		f, err := q.pool.Get(page)
		if err != nil {
			return err
		}
		if err := verifyPage(page, f.Data()); err != nil {
			q.pool.Unpin(f)
			return err
		}
		next := pager.PageID(binary.LittleEndian.Uint32(f.Data()[0:]))
		n := int(binary.LittleEndian.Uint16(f.Data()[4:]))
		for i := 0; i < n; i++ {
			q.list = append(q.list, q.codec.Decode(f.Data()[bucketHeaderSize+i*size:]))
		}
		q.pool.Unpin(f)
		b.head = next
		b.count -= n
		q.diskLen -= n
		if err := q.pool.Drop(page); err != nil {
			return err
		}
	}
	delete(q.buckets, idx)
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

// doRefill advances the tier boundaries when the heap drains: the list is
// poured into the heap, D1 := D2, D2 += DT, and the next disk bucket is
// loaded into the list (paper §3.2). Empty bucket ranges are skipped in one
// jump rather than one DT step at a time.
func (q *HybridQueue[T]) doRefill() error {
	for q.heap.Empty() && (len(q.list) > 0 || q.diskLen > 0) {
		for _, v := range q.list {
			q.heap.Insert(v)
		}
		q.list = q.list[:0]
		q.d1 = q.d2
		if q.diskLen == 0 {
			q.d2 = q.d1 + q.cfg.DT
			continue
		}
		// Find the lowest populated bucket at or beyond the new D1.
		minIdx := -1
		for idx := range q.buckets {
			if minIdx == -1 || idx < minIdx {
				minIdx = idx
			}
		}
		// Jump boundaries so the chosen bucket maps to [D1, D2).
		if lo := float64(minIdx) * q.cfg.DT; lo > q.d1 {
			q.d1 = lo
		}
		q.d2 = float64(minIdx+1) * q.cfg.DT
		if err := q.loadBucket(minIdx); err != nil {
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

// PinnedFrames reports how many of the disk tier's buffer-pool frames are
// still pinned. Outside an in-flight operation it must be 0 — every fetch
// and spill unpins on success, failure and cancellation alike — which the
// cancellation sweep asserts after abandoning runs mid-join.
func (q *HybridQueue[T]) PinnedFrames() int { return q.pool.PinnedFrames() }

// Close implements Queue.
func (q *HybridQueue[T]) Close() error { return q.pool.Store().Close() }
