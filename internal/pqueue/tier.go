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
)

// HybridConfig configures the disk tier of a hybrid queue.
type HybridConfig struct {
	// DT is the fixed distance increment of the paper's scheme: buckets
	// [i·DT, (i+1)·DT), the list tier one bucket, the heap every bucket
	// below it, the disk tier every bucket beyond; initially the heap holds
	// d < DT and the list [DT, 2·DT). 0 derives DT from the first
	// AdaptiveSample insertions, the dynamic partitioning the paper lists as
	// future work (§5); until then every element stays in the heap.
	DT float64
	// AdaptiveSample is the number of insertions observed before fixing an
	// adaptive DT. Defaults to 4096.
	AdaptiveSample int
	// PageSize is the page size of the disk tier (default 4096).
	PageSize int
	// Dir is where the backing scratch file is created when Store is nil
	// (empty: the default temp directory).
	Dir string
	// Store overrides the disk-tier page store.
	Store pager.Store
	// Meter is the owning engine's telemetry: the queue reports pushes,
	// pops, spills (as their own phase), bucket fetches and every page it
	// reads from or writes to its store. May be nil (no accounting, no
	// clock reads at all).
	Meter *meter.Meter
}

// Tier is the disk tier of the paper's hybrid queue (§3.2). It holds
// records: a fixed-width header, then items of one width per record, each
// starting with its key (a little-endian float64); what they say is the
// front's business. It is a radix heap over the bucket index ⌊key/DT⌋: the
// queue is monotone, so with last the list tier's bucket an item of bucket
// i > last goes to class bits.Len(i XOR last), a chain of sealed pages in
// the store plus one tail page in memory. Advance empties the lowest
// populated class: its smallest bucket becomes the list tier, handed to the
// front's load, and the rest move as bytes into strictly lower classes.
type Tier struct {
	cfg  HybridConfig
	hdr  int                     // record header width in bytes
	load func(hdr, items []byte) // takes a record's items of the list tier's bucket

	// last is the list tier's bucket. It moves only when the lowest class
	// is emptied, or by one while the disk tier is empty, so no populated
	// class changes its number.
	last int

	classes [numClasses]class
	n       int    // items on disk
	head    []byte // header of the record Put adds to
	width   int    // width of its items
	seq     uint32 // numbers the records Begin opens
	store   pager.Store
	rbuf    []byte   // the page a chain is read back through
	lbuf    []byte   // a routed record's items of the list tier's bucket
	free    [][]byte // tail pages of emptied classes, reused
	m       *meter.Meter

	sampled []float64 // adaptive mode: the keys seen while DT is 0

	// failed poisons the tier after the first storage error, whose
	// bookkeeping can no longer be trusted: the front returns it from every
	// later operation instead of serving a truncated stream.
	failed error
}

// class is one radix class of the disk tier: the buckets i with
// bits.Len(i XOR last) equal to the class's number.
type class struct {
	head  pager.PageID // chain of sealed full pages, newest first
	tail  []byte       // the page being filled; nil until the class is first used
	used  int          // bytes of tail in use
	recs  int          // records begun in tail
	open  int          // offset of tail's last record, which Put may extend; 0 if none
	seq   uint32       // the record (Begin's number) the open one belongs to
	k     int          // items in the open record
	count int          // items in the class, chain and tail
	min   int          // smallest bucket among them; meaningless when count == 0
}

const (
	// maxIdx is the largest bucket index: ⌊d/DT⌋ is clamped to it, so a
	// huge (or infinite) d/DT does not overflow int.
	maxIdx = 1<<62 - 1
	// numClasses is one more than the highest class number, bits.Len(maxIdx).
	numClasses = 63
)

// Disk-tier page layout: next page (4) + records (4) + CRC-32C (4) +
// reserved (4), then the records, each an item count (2), the item width
// (2), the header and the items; a record that outgrows its page continues
// on the next under a copy of its header. The checksum covers the page but
// its own field, so a torn page surfaces as ErrPageChecksum. A page is
// sealed once, when its class's tail fills, and verified once, when its
// class is emptied.
const (
	pageHeaderSize = 16
	pageCRCOffset  = 8
	recHeaderSize  = 4
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

// verifyPage checks a page read from the disk tier against its stored
// checksum.
func verifyPage(id pager.PageID, data []byte) error {
	stored := binary.LittleEndian.Uint32(data[pageCRCOffset:])
	if got := pageCRC(data); got != stored {
		return fmt.Errorf("%w: page %d (stored %08x, computed %08x)", ErrPageChecksum, id, stored, got)
	}
	return nil
}

// NewTier creates a disk tier of records with hdr-byte headers and items of
// at most item bytes, item bytes until Begin says otherwise. load receives,
// at Advance, each record's items of the new list bucket with the record's
// header; both slices are valid only during the call.
func NewTier(cfg HybridConfig, hdr, item int, load func(hdr, items []byte)) (*Tier, error) {
	if !(cfg.DT >= 0) {
		return nil, errors.New("pqueue: DT must be positive (or 0: adaptive)")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.AdaptiveSample == 0 {
		cfg.AdaptiveSample = 4096
	}
	if need := pageHeaderSize + recHeaderSize + hdr + item; need > cfg.PageSize {
		return nil, fmt.Errorf("pqueue: a record of one %d-byte item needs %d bytes, the page has %d", item, need, cfg.PageSize)
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = pager.NewFileStore(cfg.Dir, cfg.PageSize)
		if err != nil {
			return nil, err
		}
	}
	return &Tier{cfg: cfg, hdr: hdr, width: item, load: load, last: 1, store: store, m: cfg.Meter}, nil
}

// DT returns the distance increment in effect (0 while an adaptive tier is
// still sampling).
func (t *Tier) DT() float64 { return t.cfg.DT }

// Len returns the number of items on disk.
func (t *Tier) Len() int { return t.n }

// Last returns the list tier's bucket.
func (t *Tier) Last() int { return t.last }

// Err returns the error that poisoned the tier, if any.
func (t *Tier) Err() error { return t.failed }

// fail latches the first storage error, poisoning the tier.
func (t *Tier) fail(err error) error {
	if err != nil && t.failed == nil {
		t.failed = err
	}
	return err
}

// Bucket returns the bucket of distance d: ⌊d/DT⌋ clamped into
// [0, maxIdx]. It is the queue's one classifier — tier and class both follow
// from the bucket alone, never from a second comparison against a boundary
// computed another way, so rounding cannot send an element to a tier that
// disagrees with its bucket. It is monotone in d: an element of a lower
// bucket orders strictly before every element of a higher one.
func (t *Tier) Bucket(d float64) int {
	x := d / t.cfg.DT
	switch {
	case x < 1:
		return 0
	case x < maxIdx:
		return int(x)
	}
	return maxIdx // huge, +Inf or NaN
}

// Sample notes the key of an insertion the front made while DT is 0 (it
// keeps them all in its heap meanwhile). The AdaptiveSample-th call fixes DT
// and reports true: the front must then re-tier everything it holds.
//
// DT is the sample's 1/64 quantile, low on purpose: a join's first
// insertions span the whole space while its pops stay near zero, so a DT of
// their scale sends nearly everything to the heap, and the disk tier's cost
// does not depend on DT (DESIGN.md §5).
func (t *Tier) Sample(d float64) bool {
	if t.sampled = append(t.sampled, d); len(t.sampled) < t.cfg.AdaptiveSample {
		return false
	}
	s := t.sampled
	t.sampled = nil
	sort.Float64s(s)
	t.cfg.DT = s[len(s)/64]
	if t.cfg.DT <= 0 { // degenerate: the first positive sample, or 1
		t.cfg.DT = 1
		if i := sort.Search(len(s), func(i int) bool { return s[i] > 0 }); i < len(s) {
			t.cfg.DT = s[i]
		}
	}
	return true
}

// Begin opens a record of item-byte items under header hdr (unchanged until
// the next Begin) for the items Put adds next. A tier of headerless records
// of one width needs no Begin: its items share one record per tail page.
func (t *Tier) Begin(hdr []byte, item int) {
	if t.hdr > 0 || item != t.width {
		t.seq++
	}
	t.head, t.width = hdr, item
}

// Put returns the slot of a new item of bucket i > Last(), counted as
// spilled; the caller writes the item, key first, into it.
func (t *Tier) Put(i int) ([]byte, error) {
	if t.failed != nil {
		return nil, t.failed
	}
	dst, err := t.slot(i)
	if err == nil {
		t.n++
		t.m.Spill()
	}
	return dst, t.fail(err)
}

// slot returns room for one more item of bucket i > last in the open record
// of its class, opening a record — on a fresh page when the tail is full —
// where there is none for the current header. It is the one way into the
// disk tier, for a spilled item and a re-routed one alike.
func (t *Tier) slot(i int) ([]byte, error) {
	cl := &t.classes[bits.Len64(uint64(i^t.last))]
	if cl.tail == nil {
		if n := len(t.free); n > 0 {
			cl.tail, t.free = t.free[n-1], t.free[:n-1]
		} else {
			cl.tail = make([]byte, t.cfg.PageSize)
		}
		cl.used = pageHeaderSize
	}
	if cl.open == 0 || cl.seq != t.seq || cl.k == math.MaxUint16 || cl.used+t.width > len(cl.tail) {
		if cl.used+recHeaderSize+t.hdr+t.width > len(cl.tail) {
			if err := t.flush(cl); err != nil {
				return nil, err
			}
		}
		cl.open, cl.seq, cl.k = cl.used, t.seq, 0
		binary.LittleEndian.PutUint16(cl.tail[cl.used+2:], uint16(t.width))
		copy(cl.tail[cl.used+recHeaderSize:], t.head)
		cl.used += recHeaderSize + t.hdr
		cl.recs++
	}
	if cl.count == 0 || i < cl.min {
		cl.min = i
	}
	cl.k++
	binary.LittleEndian.PutUint16(cl.tail[cl.open:], uint16(cl.k))
	off := cl.used
	cl.used += t.width
	cl.count++
	return cl.tail[off:cl.used], nil
}

// flush seals the class's full tail page and writes it to a new page at the
// head of the class's chain. The buffer stays the class's tail.
func (t *Tier) flush(cl *class) error {
	id, err := t.store.Allocate()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(cl.tail[0:], uint32(cl.head))
	binary.LittleEndian.PutUint32(cl.tail[4:], uint32(cl.recs))
	binary.LittleEndian.PutUint32(cl.tail[pageCRCOffset:], pageCRC(cl.tail))
	start := t.m.IOStart()
	if err := t.store.WritePage(id, cl.tail); err != nil {
		t.store.Free(id) // best effort: the page never joined the chain
		return err
	}
	t.m.PageWritten(start)
	cl.head = id
	cl.used, cl.recs, cl.open = pageHeaderSize, 0, 0
	return nil
}

// Advance moves the list tier on, once the front's heap and list have both
// drained into the heap (paper §3.2: D1 := D2, D2 := D1 + DT): to the next
// bucket while the disk tier is empty, else to the smallest bucket it holds,
// skipping the empty buckets between in one jump.
func (t *Tier) Advance() error {
	if t.failed != nil {
		return t.failed
	}
	if t.n == 0 {
		t.last++
		return nil
	}
	return t.fail(t.advance())
}

// advance empties the lowest populated class, which holds the disk tier's
// smallest bucket: that bucket becomes the list tier and the class's other
// items move to strictly lower classes, since every bucket of a class shares
// its leading bit. Classes above keep their numbers.
func (t *Tier) advance() error {
	c := 1
	for t.classes[c].count == 0 {
		c++
	}
	cl := &t.classes[c]
	t.last = cl.min
	n, err := t.route(cl.tail, cl.recs)
	if err != nil {
		return err
	}
	cl.count -= n
	t.free = append(t.free, cl.tail)
	cl.tail, cl.recs, cl.open = nil, 0, 0
	if cl.head != pager.InvalidPage && t.rbuf == nil {
		t.rbuf = make([]byte, t.cfg.PageSize)
	}
	for cl.head != pager.InvalidPage {
		page := cl.head
		start := t.m.IOStart()
		if err := t.store.ReadPage(page, t.rbuf); err != nil {
			return err
		}
		t.m.PageRead(start)
		if err := verifyPage(page, t.rbuf); err != nil {
			return err
		}
		n, err := t.route(t.rbuf, int(binary.LittleEndian.Uint32(t.rbuf[4:])))
		if err != nil {
			return err
		}
		cl.count -= n
		if err := t.store.Free(page); err != nil {
			return err
		}
		cl.head = pager.PageID(binary.LittleEndian.Uint32(t.rbuf[0:]))
	}
	return nil
}

// route moves the recs records of one page of the class being emptied and
// returns how many items they held: each record's items of the list tier's
// bucket go to load in one call, the others are copied as they are into
// their new classes, under a copy of the record's header.
func (t *Tier) route(page []byte, recs int) (int, error) {
	off, items := pageHeaderSize, 0
	for ; recs > 0; recs-- {
		k, width := int(binary.LittleEndian.Uint16(page[off:])), int(binary.LittleEndian.Uint16(page[off+2:]))
		off += recHeaderSize
		t.Begin(page[off:off+t.hdr], width)
		off += t.hdr
		list := t.lbuf[:0]
		for end := off + k*width; off < end; off += width {
			it := page[off : off+width]
			if i := t.Bucket(math.Float64frombits(binary.LittleEndian.Uint64(it))); i > t.last {
				dst, err := t.slot(i)
				if err != nil {
					return items, err
				}
				copy(dst, it)
			} else {
				list = append(list, it...)
			}
		}
		items += k
		if len(list) > 0 {
			t.n -= len(list) / width
			t.load(t.head, list)
		}
		t.lbuf = list[:0]
	}
	return items, nil
}

// CheckStore verifies page conservation for tests, on a quiescent queue:
// the pages allocated in the store are exactly those linked from the class
// chains, each read (unmetered) and verified.
func (t *Tier) CheckStore() error {
	buf := make([]byte, t.cfg.PageSize)
	linked := 0
	for c := range t.classes {
		for id := t.classes[c].head; id != pager.InvalidPage; linked++ {
			if err := t.store.ReadPage(id, buf); err != nil {
				return err
			}
			if err := verifyPage(id, buf); err != nil {
				return err
			}
			id = pager.PageID(binary.LittleEndian.Uint32(buf[0:]))
		}
	}
	if n := t.store.NumAllocated(); n != linked {
		return fmt.Errorf("pqueue: store holds %d pages, class chains link %d", n, linked)
	}
	return nil
}

// Close releases the store.
func (t *Tier) Close() error { return t.store.Close() }
