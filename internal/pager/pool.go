package pager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrAllPinned is returned when every frame in the pool is pinned and a new
// page must be brought in.
var ErrAllPinned = errors.New("pager: all buffer frames are pinned")

// IOCounter receives physical I/O accounting from a Pool. A nil IOCounter
// is valid and records nothing. The stats package provides the adapter that
// routes an index pool's I/O into the node-I/O columns of the experiment
// counters — the paper accounts R-tree node I/O (Table 1) separately from
// the hybrid priority queue's disk traffic, which has no pool and counts its
// own page reads and writes.
type IOCounter interface {
	// AddRead records n physical page reads (buffer misses).
	AddRead(n int64)
	// AddWrite records n physical page writes.
	AddWrite(n int64)
	// AddHit records n accesses served from the buffer.
	AddHit(n int64)
}

// Frame is a buffer-pool slot holding one page. Callers access page bytes
// through Data and must call Pool.Unpin exactly once per Get/Allocate. The
// pool reuses a frame (and its buffer) for another page once it is evicted
// or dropped, so a *Frame means nothing after its Unpin.
type Frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	// prev and next link the frame into the pool's LRU ring while it is
	// unpinned (both nil otherwise); a freed frame chains through next.
	prev, next *Frame
	// decoded is the page's reader-side form, kept for as long as the
	// bytes it was built from: MarkDirty and every way out of the pool
	// (eviction, Drop, Reset, a failed read) clear it.
	decoded atomic.Pointer[any]
}

// ID returns the page this frame holds.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. The slice is valid only while the frame is
// pinned.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the page bytes were modified and must be written
// back on eviction or flush. It discards the decoded form.
func (f *Frame) MarkDirty() {
	f.dirty = true
	f.decoded.Store(nil)
}

// Decoded returns what SetDecoded attached to the page's current bytes, or
// nil. The frame must be pinned.
func (f *Frame) Decoded() any {
	if v := f.decoded.Load(); v != nil {
		return *v
	}
	return nil
}

// SetDecoded attaches *v, an immutable decoded form of the page bytes, to
// the pinned frame, for later readers to share until the bytes change or
// leave the pool. Concurrent readers may each set one; any of them is kept.
// The frame keeps v itself, so a form attached to frame after frame is boxed
// once, by its owner, and attaching it allocates nothing.
func (f *Frame) SetDecoded(v *any) { f.decoded.Store(v) }

// Pool is an LRU buffer pool over a Store. It counts physical reads and
// writes into a stats.Counters, which is how the reproduction measures the
// paper's "node I/O" column.
//
// The pool is safe for concurrent use: all frame-table and store accesses
// are serialized under an internal mutex, so multiple readers (e.g. the
// partition workers of a parallel distance join) may share one pool. A
// pinned frame cannot be evicted, so the bytes returned by Frame.Data stay
// valid (and, for read-only workloads, race-free) until Unpin. Concurrent
// WRITERS of the same page must coordinate among themselves — the join
// engines never modify index pages, and index construction remains
// single-goroutine.
type Pool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	frames   map[PageID]*Frame
	lru      Frame  // ring sentinel of the unpinned frames: lru.next is the most recently used
	free     *Frame // dropped frames awaiting reuse, chained through next
	counters IOCounter
}

// NewPool creates a pool of capacity frames over store. The paper's 256 KiB
// buffer over 1 KiB pages corresponds to capacity 256. counters may be nil.
func NewPool(store Store, capacity int, counters IOCounter) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pager: pool capacity must be positive, got %d", capacity)
	}
	p := &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		counters: counters,
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p, nil
}

// Store returns the underlying page store. The store itself is not
// synchronized; callers must not access it while pool operations are in
// flight on other goroutines.
func (p *Pool) Store() Store { return p.store }

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// Resident returns the number of pages currently buffered.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Get pins the page into a frame, reading it from the store on a miss. The
// page bytes are fully read before Get returns, and the frame stays pinned
// (hence unevictable) until Unpin, so concurrent Gets of the same page may
// share the frame.
func (p *Pool) Get(id PageID) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		if p.counters != nil {
			p.counters.AddHit(1)
		}
		if f.pins++; f.next != nil {
			p.unlink(f)
		}
		p.mu.Unlock()
		return f, nil
	}
	f, err := p.fetch(id)
	p.mu.Unlock()
	return f, err
}

// fetch is the miss path of Get: admit a frame and read the page into it.
func (p *Pool) fetch(id PageID) (*Frame, error) {
	f, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	if err := p.store.ReadPage(id, f.data); err != nil {
		p.release(f)
		return nil, err
	}
	if p.counters != nil {
		p.counters.AddRead(1)
	}
	return f, nil
}

// Allocate creates a new page in the store and returns it pinned. The fresh
// page is zeroed and marked dirty so it reaches the store on eviction.
func (p *Pool) Allocate() (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	f, err := p.admit(id)
	if err != nil {
		// Roll back the allocation so the store does not leak a page. If
		// Free itself fails the page leaks in the store, but the original
		// admit error is the one the caller must see.
		_ = p.store.Free(id)
		return nil, err
	}
	clear(f.data)
	f.dirty = true
	return f, nil
}

// admit finds a frame for id and pins it: a freed frame first, then — at
// capacity — the least recently used one, evicted, and a new one only while
// the pool is still filling. In steady state the pool therefore allocates
// nothing per miss. The frame's data is whatever its last page left: Get
// reads over it, Allocate clears it.
func (p *Pool) admit(id PageID) (*Frame, error) {
	f := p.free
	switch {
	case f != nil:
		p.free, f.next = f.next, nil
	case len(p.frames) >= p.capacity:
		if f = p.lru.prev; f == &p.lru {
			return nil, ErrAllPinned
		}
		if f.dirty {
			if err := p.store.WritePage(f.id, f.data); err != nil {
				return nil, err
			}
			if p.counters != nil {
				p.counters.AddWrite(1)
			}
		}
		p.unlink(f)
		delete(p.frames, f.id)
		f.dirty = false
		f.decoded.Store(nil)
	default:
		f = &Frame{data: make([]byte, p.store.PageSize())}
	}
	f.id, f.pins = id, 1
	p.frames[id] = f
	return f, nil
}

// unlink takes f off the LRU ring.
func (p *Pool) unlink(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// Unpin releases one pin on f. When the pin count reaches zero the frame
// becomes eligible for eviction.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	if f.pins <= 0 {
		p.mu.Unlock()
		panic(fmt.Sprintf("pager: unpin of unpinned frame %d", f.id))
	}
	if f.pins--; f.pins == 0 {
		f.prev, f.next = &p.lru, p.lru.next
		f.prev.next, f.next.prev = f, f
	}
	p.mu.Unlock()
}

// release takes f out of the pool without write-back — after a failed read
// (so the failed page is neither cached nor left pinned: a later Get retries
// the physical read from scratch) or a Drop — and keeps it for reuse.
func (p *Pool) release(f *Frame) {
	if f.next != nil {
		p.unlink(f)
	}
	delete(p.frames, f.id)
	f.pins, f.dirty = 0, false
	f.decoded.Store(nil)
	f.next, p.free = p.free, f
}

// Drop removes the page from the pool without write-back and frees it in the
// store. The page must not be pinned.
func (p *Pool) Drop(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("pager: dropping pinned page %d", id)
		}
		p.release(f)
	}
	return p.store.Free(id)
}

// FlushAll writes back every dirty frame (pinned or not) without evicting.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushAllLocked()
}

func (p *Pool) flushAllLocked() error {
	for _, f := range p.frames {
		if f.dirty {
			if err := p.store.WritePage(f.id, f.data); err != nil {
				return err
			}
			if p.counters != nil {
				p.counters.AddWrite(1)
			}
			f.dirty = false
		}
	}
	return nil
}

// Reset flushes every dirty frame and empties the pool, so subsequent
// accesses start from a cold buffer — used by the experiment harness to make
// node I/O counts comparable across runs that share a tree. It fails if any
// frame is pinned.
func (p *Pool) Reset() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.pins > 0 {
			return fmt.Errorf("pager: reset with pinned page %d", f.id)
		}
	}
	if err := p.flushAllLocked(); err != nil {
		return err
	}
	for _, f := range p.frames {
		p.release(f)
	}
	return nil
}

// SetCounters swaps the counter sink, returning the previous one. This lets
// an experiment attach fresh counters to an already-built tree.
func (p *Pool) SetCounters(c IOCounter) IOCounter {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.counters
	p.counters = c
	return old
}
