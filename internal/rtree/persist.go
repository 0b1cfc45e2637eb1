package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"distjoin/internal/pager"
	"distjoin/internal/stats"
)

// Trees created by New/BulkLoad over a named file store can be persisted
// with Flush and reopened with Open. The first page of the store is
// reserved as a metadata page holding the tree geometry and root pointer;
// Flush writes it (plus all dirty node pages) so a subsequent Open
// reconstructs the tree. Freed pages are leaked across sessions (the free
// list is in-memory only), which is harmless for read-mostly index files.

// metaMagic identifies an R-tree metadata page.
const metaMagic = 0x52545245 // "RTRE"

const metaVersion = 1

// metaPageID is the reserved metadata page. It is allocated first by New,
// so it is always page 1.
const metaPageID pager.PageID = 1

// errNoMeta is returned by Open when the store has no valid metadata page.
var errNoMeta = errors.New("rtree: store has no valid R-tree metadata page")

// encodeMeta writes the tree's metadata into a page image.
func (t *Tree) encodeMeta(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], metaVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.cfg.Dims))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.cfg.PageSize))
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.root))
	binary.LittleEndian.PutUint32(buf[20:], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[24:], uint64(t.size))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(t.cfg.MinFill))
	binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(t.cfg.ReinsertFraction))
}

// Flush persists the tree: the metadata page is rewritten and every dirty
// node page is written back to the store. For a file-backed store this
// makes the tree reopenable with Open after the process exits.
func (t *Tree) Flush() error {
	f, err := t.pool.Get(metaPageID)
	if err != nil {
		return fmt.Errorf("rtree: reading meta page: %w", err)
	}
	t.encodeMeta(f.Data())
	f.MarkDirty()
	t.pool.Unpin(f)
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if fs, ok := t.pool.Store().(*pager.FileStore); ok {
		return fs.Sync()
	}
	return nil
}

// Open reconstructs a tree persisted with Flush from its store. The
// counters may be nil. The store's page size must match the one the tree
// was built with (it is validated against the metadata).
func Open(store pager.Store, counters *stats.Counters) (*Tree, error) {
	buf := make([]byte, store.PageSize())
	if err := store.ReadPage(metaPageID, buf); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoMeta, err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, errNoMeta
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != metaVersion {
		return nil, fmt.Errorf("rtree: unsupported metadata version %d", v)
	}
	cfg := Config{
		Dims:             int(binary.LittleEndian.Uint32(buf[8:])),
		PageSize:         int(binary.LittleEndian.Uint32(buf[12:])),
		MinFill:          math.Float64frombits(binary.LittleEndian.Uint64(buf[32:])),
		ReinsertFraction: math.Float64frombits(binary.LittleEndian.Uint64(buf[40:])),
		Counters:         counters,
	}.withDefaults()
	if cfg.PageSize != store.PageSize() {
		return nil, fmt.Errorf("rtree: store page size %d, tree built with %d",
			store.PageSize(), cfg.PageSize)
	}
	maxE := maxEntriesFor(cfg.PageSize, cfg.Dims)
	minE := int(cfg.MinFill * float64(maxE))
	if minE < 2 {
		minE = 2
	}
	pool, err := pager.NewPool(store, cfg.BufferFrames, stats.NodeSink(counters))
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:        cfg,
		pool:       pool,
		root:       pager.PageID(binary.LittleEndian.Uint32(buf[16:])),
		height:     int(binary.LittleEndian.Uint32(buf[20:])),
		size:       int(binary.LittleEndian.Uint64(buf[24:])),
		maxEntries: maxE,
		minEntries: minE,
	}
	if t.root == pager.InvalidPage || t.height < 1 {
		return nil, errors.New("rtree: corrupt metadata (invalid root or height)")
	}
	// Sanity-probe the root so obviously corrupt files fail at Open rather
	// than at first query.
	if _, err := t.readNode(t.root); err != nil {
		return nil, fmt.Errorf("rtree: reading root: %w", err)
	}
	return t, nil
}

// OpenFile opens a tree persisted to the named file, discovering the page
// size from the metadata header. counters may be nil.
func OpenFile(path string, counters *stats.Counters) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	header := make([]byte, 16)
	if _, err := io.ReadFull(f, header); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", errNoMeta, err)
	}
	f.Close()
	if binary.LittleEndian.Uint32(header[0:]) != metaMagic {
		return nil, errNoMeta
	}
	pageSize := int(binary.LittleEndian.Uint32(header[12:]))
	if pageSize <= 0 || pageSize > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible page size %d in %s", pageSize, path)
	}
	store, err := pager.OpenNamedFileStore(path, pageSize)
	if err != nil {
		return nil, err
	}
	t, err := Open(store, counters)
	if err != nil {
		store.Close()
		return nil, err
	}
	return t, nil
}

// CreateFile creates a new persistent tree backed by the named file, which
// must not already hold one.
func CreateFile(path string, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	store, err := pager.OpenNamedFileStore(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cfg.Store = store
	t, err := New(cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	return t, nil
}
