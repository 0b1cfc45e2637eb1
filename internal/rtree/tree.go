package rtree

import (
	"errors"
	"fmt"
	"sync"
	"weak"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/stats"
)

// Config describes an R*-tree. The zero value is not valid; fill in Dims and
// call New.
type Config struct {
	// Dims is the dimensionality of indexed rectangles. Required.
	Dims int
	// PageSize is the node size in bytes. The default of 2048 yields a
	// fan-out of 51 in 2-D with 8-byte coordinates — matching the paper's
	// fan-out of 50 (it used 1 KiB nodes with 4-byte coordinates).
	PageSize int
	// BufferFrames is the buffer-pool capacity in pages. The default of
	// 128 frames × 2 KiB pages reproduces the paper's 256 KiB of buffer
	// memory.
	BufferFrames int
	// MinFill is the minimum node fill as a fraction of the maximum
	// fan-out; the paper (§2.2.4) and the R*-tree paper use 0.4.
	MinFill float64
	// ReinsertFraction is the share of entries removed on forced
	// reinsertion; the R*-tree paper recommends 0.3.
	ReinsertFraction float64
	// Counters receives I/O accounting. May be nil.
	Counters *stats.Counters
	// Store supplies a custom page store; a MemStore is created when nil.
	Store pager.Store
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 2048
	}
	if c.BufferFrames == 0 {
		c.BufferFrames = 128
	}
	if c.MinFill == 0 {
		c.MinFill = 0.4
	}
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = 0.3
	}
	return c
}

// Tree is a disk-paged R*-tree. Mutation (Insert, Delete, bulk loading) is
// single-goroutine, but a fully built tree supports concurrent readers:
// ReadNodeLean and the search/join traversals built on it go through the buffer
// pool, which serializes frame management internally — this is what lets the
// parallel partitioned distance join share one tree among its workers.
type Tree struct {
	cfg        Config
	pool       *pager.Pool
	root       pager.PageID
	height     int // number of levels; 1 = root is a leaf
	size       int // number of objects
	maxEntries int
	minEntries int
	// decoding is held by a miss's decode, so that readers meeting on one
	// cold page share one decode of it, and guards decodes.
	decoding sync.Mutex
	// decodes[id] points weakly at page id's last decode until the page's
	// bytes change: a miss attaches that node to the frame again while the
	// collector has not reclaimed it, instead of decoding the page afresh.
	decodes []weak.Pointer[Node]
}

// New creates an empty R*-tree.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if cfg.Dims <= 0 {
		return nil, errors.New("rtree: Dims must be positive")
	}
	if cfg.MinFill <= 0 || cfg.MinFill > 0.5 {
		return nil, fmt.Errorf("rtree: MinFill %g out of range (0, 0.5]", cfg.MinFill)
	}
	if cfg.ReinsertFraction < 0 || cfg.ReinsertFraction >= 1 {
		return nil, fmt.Errorf("rtree: ReinsertFraction %g out of range [0, 1)", cfg.ReinsertFraction)
	}
	maxE := maxEntriesFor(cfg.PageSize, cfg.Dims)
	if maxE < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small for %d dims (fan-out %d < 4)",
			cfg.PageSize, cfg.Dims, maxE)
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = pager.NewMemStore(cfg.PageSize)
		if err != nil {
			return nil, err
		}
	}
	pool, err := pager.NewPool(store, cfg.BufferFrames, stats.NodeSink(cfg.Counters))
	if err != nil {
		return nil, err
	}
	minE := int(cfg.MinFill * float64(maxE))
	if minE < 2 {
		minE = 2
	}
	t := &Tree{
		cfg:        cfg,
		pool:       pool,
		height:     1,
		maxEntries: maxE,
		minEntries: minE,
	}
	// Reserve the metadata page (always page 1) so the tree can be
	// persisted with Flush and reopened with Open.
	meta, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	if meta.ID() != metaPageID {
		pool.Unpin(meta)
		return nil, fmt.Errorf("rtree: store is not fresh (first page is %d)", meta.ID())
	}
	rootNode := &Node{Level: 0}
	if err := t.allocNode(rootNode); err != nil {
		pool.Unpin(meta)
		return nil, err
	}
	t.root = rootNode.Page
	t.encodeMeta(meta.Data())
	meta.MarkDirty()
	pool.Unpin(meta)
	return t, nil
}

// Dims returns the dimensionality of the tree.
func (t *Tree) Dims() int { return t.cfg.Dims }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity (fan-out).
func (t *Tree) MaxEntries() int { return t.maxEntries }

// MinEntries returns the minimum entries per non-root node.
func (t *Tree) MinEntries() int { return t.minEntries }

// RootPage returns the page id of the root node.
func (t *Tree) RootPage() pager.PageID { return t.root }

// Pool exposes the buffer pool, letting experiments attach counters.
func (t *Tree) Pool() *pager.Pool { return t.pool }

// MinObjectsUnder returns the guaranteed minimum number of objects in the
// subtree of a node at the given level, derived from the minimum fan-out and
// height as in §2.2.4 of the paper. The root is exempt from the minimum-fill
// invariant, so callers should only apply this to non-root nodes; for a
// conservative bound we still return at least 1.
func (t *Tree) MinObjectsUnder(level int) int {
	n := 1
	for l := 0; l <= level; l++ {
		n *= t.minEntries
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ReadNode returns the node stored on the given page with its Entries: the
// node ReadNodeLean returns, whose Entries — views of its Coords — are built
// the first time ReadNode reads that decode of the page.
func (t *Tree) ReadNode(id pager.PageID) (*Node, error) {
	n, err := t.ReadNodeLean(id)
	if err == nil {
		n.entries.Do(func() { n.Entries = n.entryViews() })
	}
	return n, err
}

// ReadNodeLean returns the read node stored on the given page: Coords, Refs
// and Points, no Entries. The join engines and the tree's own traversals
// read it, so every traversal is charged through the buffer pool: each call
// is one pool access, and a miss reads the page into a frame. The page is
// decoded once per page version: the result is shared by every reader, on
// every goroutine, until the page is written or freed or the cache dropped,
// and a miss after an eviction hands it out again while the collector has
// not reclaimed it. So the node and every rectangle read from it are
// READ-ONLY, and a caller that hands a rectangle on to code it does not
// control hands on a copy. The node stays valid for as long as it is
// referenced.
func (t *Tree) ReadNodeLean(id pager.PageID) (*Node, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	n, _ := f.Decoded().(*Node)
	if n == nil {
		t.decoding.Lock()
		if n, _ = f.Decoded().(*Node); n == nil {
			if n, err = t.decode(id, f.Data()); err == nil {
				f.SetDecoded(&n.self)
			}
		}
		t.decoding.Unlock()
	}
	t.pool.Unpin(f)
	return n, err
}

// decode returns the page's last decode if the collector has not reclaimed
// it, or else decodes buf, the page's bytes, and remembers the result.
// t.decoding is held.
func (t *Tree) decode(id pager.PageID, buf []byte) (*Node, error) {
	if int(id) < len(t.decodes) {
		if n := t.decodes[id].Value(); n != nil {
			return n, nil
		}
	}
	n, err := decodeNode(id, t.cfg.Dims, buf)
	if err != nil {
		return nil, err
	}
	n.self = n
	if grow := int(id) + 1 - len(t.decodes); grow > 0 {
		t.decodes = append(t.decodes, make([]weak.Pointer[Node], grow)...)
	}
	t.decodes[id] = weak.Make(n)
	return n, nil
}

// forget drops the page's last decode: its bytes are about to change.
func (t *Tree) forget(id pager.PageID) {
	t.decoding.Lock()
	if int(id) < len(t.decodes) {
		t.decodes[id] = weak.Pointer[Node]{}
	}
	t.decoding.Unlock()
}

// editNode decodes a private, mutable edit node from the given page for
// insertion and deletion to rearrange and hand back to writeNode.
func (t *Tree) editNode(id pager.PageID) (*Node, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(id, t.cfg.Dims, f.Data())
	t.pool.Unpin(f)
	if err == nil {
		n.Entries, n.Coords, n.Refs = n.entryViews(), nil, nil
	}
	return n, err
}

// writeNode encodes the node back to its page; marking the frame dirty
// discards the page's shared decoded form, and the tree forgets it.
func (t *Tree) writeNode(n *Node) error {
	f, err := t.pool.Get(n.Page)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	t.forget(n.Page)
	encodeNode(n, t.cfg.Dims, f.Data())
	f.MarkDirty()
	return nil
}

// allocNode assigns a fresh page to n and writes it.
func (t *Tree) allocNode(n *Node) error {
	f, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	n.Page = f.ID()
	t.forget(n.Page)
	encodeNode(n, t.cfg.Dims, f.Data())
	f.MarkDirty()
	return nil
}

// freeNode releases the node's page.
func (t *Tree) freeNode(id pager.PageID) error {
	t.forget(id)
	return t.pool.Drop(id)
}

// Bounds returns the MBR of all indexed objects, or false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	root, err := t.ReadNodeLean(t.root)
	if err != nil || len(root.Refs) == 0 {
		return geom.Rect{}, false
	}
	return root.MBR(), true
}

// DropCache flushes and empties the buffer pool, and forgets every page's
// last decode, so the next traversal runs against a cold buffer and decodes
// every page it reads; the experiment harness calls this between runs.
func (t *Tree) DropCache() error {
	t.decoding.Lock()
	clear(t.decodes)
	t.decoding.Unlock()
	return t.pool.Reset()
}

// Close releases the underlying store.
func (t *Tree) Close() error {
	return t.pool.Store().Close()
}

// checkRect validates a rectangle argument.
func (t *Tree) checkRect(r geom.Rect) error {
	if !r.Valid() {
		return fmt.Errorf("rtree: invalid rectangle %v", r)
	}
	if r.Dim() != t.cfg.Dims {
		return fmt.Errorf("rtree: rectangle dimension %d, tree dimension %d", r.Dim(), t.cfg.Dims)
	}
	return nil
}

// checkStored validates a rectangle about to be stored: a query window may
// be half-infinite, an indexed object may not (MINDIST between two of them
// is Inf − Inf).
func (t *Tree) checkStored(r geom.Rect) error {
	if err := t.checkRect(r); err != nil {
		return err
	}
	if !r.Lo.IsFinite() || !r.Hi.IsFinite() {
		return fmt.Errorf("rtree: non-finite rectangle %v", r)
	}
	return nil
}
