// Package pager implements the paged-storage substrate of the reproduction:
// a fixed-size page store (memory- or file-backed), a free list, and an LRU
// buffer pool with pin/unpin semantics and I/O counters.
//
// The paper's experimental configuration (§3.1) — 1 KiB R-tree nodes with
// 256 KiB of buffer memory — corresponds to a pager with PageSize = 1024 and
// a pool of 256 frames. Buffer-pool misses are the "node I/O" measure of
// Table 1.
package pager

import (
	"errors"
	"fmt"
	"os"
	"sort"
)

// PageID identifies a page within a store. Zero is never a valid page, so
// the zero value can serve as a null reference in on-page data structures.
type PageID uint32

// InvalidPage is the null page reference.
const InvalidPage PageID = 0

// DefaultPageSize is the paper's node size of 1 KiB.
const DefaultPageSize = 1024

// Common errors returned by stores.
var (
	ErrPageOutOfRange = errors.New("pager: page id out of range")
	ErrPageFreed      = errors.New("pager: access to freed page")
	ErrBadPageSize    = errors.New("pager: page size must be positive")
	ErrClosed         = errors.New("pager: store is closed")
)

// Store is a flat collection of fixed-size pages with allocate/free.
// Implementations are not required to be safe for concurrent use: an index's
// store is reached only through its Pool, which serializes store calls under
// its own lock, and a hybrid queue's store only by the one goroutine that
// runs the queue's engine.
type Store interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int
	// Allocate returns a new zeroed page, reusing freed pages when
	// available.
	Allocate() (PageID, error)
	// Free releases a page for reuse. Freeing an unallocated page is an
	// error.
	Free(PageID) error
	// ReadPage copies the page contents into buf, which must be PageSize
	// bytes long.
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf, which must be PageSize bytes long, into the
	// page.
	WritePage(id PageID, buf []byte) error
	// NumAllocated returns the number of live (allocated, not freed)
	// pages.
	NumAllocated() int
	// Close releases resources held by the store.
	Close() error
}

// MemStore is an in-memory Store. It is the default backing for experiments:
// it makes runs deterministic and lets the harness count I/O operations
// without actual disk latency (see DESIGN.md §3 on substitutions).
type MemStore struct {
	pageSize int
	pages    [][]byte
	freed    []PageID
	isFree   map[PageID]bool
	closed   bool
}

// NewMemStore creates an empty in-memory store with the given page size.
func NewMemStore(pageSize int) (*MemStore, error) {
	if pageSize <= 0 {
		return nil, ErrBadPageSize
	}
	return &MemStore{pageSize: pageSize, isFree: make(map[PageID]bool)}, nil
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// Allocate implements Store.
func (s *MemStore) Allocate() (PageID, error) {
	if s.closed {
		return InvalidPage, ErrClosed
	}
	if n := len(s.freed); n > 0 {
		id := s.freed[n-1]
		s.freed = s.freed[:n-1]
		delete(s.isFree, id)
		clear(s.pages[id-1])
		return id, nil
	}
	s.pages = append(s.pages, make([]byte, s.pageSize))
	return PageID(len(s.pages)), nil
}

// Free implements Store.
func (s *MemStore) Free(id PageID) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	s.freed = append(s.freed, id)
	s.isFree[id] = true
	return nil
}

func (s *MemStore) check(id PageID) error {
	if id == InvalidPage || int(id) > len(s.pages) {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if s.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("pager: buffer size %d != page size %d", len(buf), s.pageSize)
	}
	copy(buf, s.pages[id-1])
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("pager: buffer size %d != page size %d", len(buf), s.pageSize)
	}
	copy(s.pages[id-1], buf)
	return nil
}

// NumAllocated implements Store.
func (s *MemStore) NumAllocated() int { return len(s.pages) - len(s.freed) }

// Close implements Store.
func (s *MemStore) Close() error {
	s.closed = true
	s.pages = nil
	return nil
}

// FileStore is a Store backed by an operating-system file. The free list is
// kept in memory only; FileStore targets scratch files (e.g. the disk tier
// of the hybrid priority queue), not durable storage.
type FileStore struct {
	f        *os.File
	pageSize int
	numPages int
	freed    []PageID
	isFree   map[PageID]bool
	// blank holds the allocated pages not written since: they read as zeros,
	// whatever the file holds there (nothing, or a freed page's old bytes).
	blank  map[PageID]bool
	closed bool
}

// NewFileStore creates a store backed by a new temporary file in dir (or the
// default temp directory when dir is empty).
func NewFileStore(dir string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		return nil, ErrBadPageSize
	}
	f, err := os.CreateTemp(dir, "pager-*.pages")
	if err != nil {
		return nil, fmt.Errorf("pager: creating backing file: %w", err)
	}
	// Unlink immediately so the scratch file disappears with the process.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: unlinking backing file: %w", err)
	}
	return &FileStore{f: f, pageSize: pageSize, isFree: make(map[PageID]bool), blank: make(map[PageID]bool)}, nil
}

// OpenNamedFileStore opens (or creates) a store backed by the named file,
// the backing for persistent indexes. An existing file's length must be a
// multiple of pageSize. The free list is not persisted: pages freed in an
// earlier session are leaked on reopen — acceptable for the read-mostly
// index files this backs, and documented at the rtree layer.
func OpenNamedFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		return nil, ErrBadPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: opening %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	if info.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d is not a multiple of page size %d",
			path, info.Size(), pageSize)
	}
	return &FileStore{
		f:        f,
		pageSize: pageSize,
		numPages: int(info.Size() / int64(pageSize)),
		isFree:   make(map[PageID]bool),
		blank:    make(map[PageID]bool),
	}, nil
}

// Sync writes the allocated pages never written since as zeros, extends the
// file to every allocated page, and flushes it to stable storage: a store
// reopened on the file then holds every page this one allocated.
func (s *FileStore) Sync() error {
	if s.closed {
		return ErrClosed
	}
	zero := make([]byte, s.pageSize)
	for id := range s.blank {
		if err := s.WritePage(id, zero); err != nil {
			return err
		}
	}
	if err := s.f.Truncate(int64(s.numPages) * int64(s.pageSize)); err != nil {
		return fmt.Errorf("pager: extending file: %w", err)
	}
	return s.f.Sync()
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.pageSize }

// Allocate implements Store. It writes nothing: the page is remembered as
// blank until its first write.
func (s *FileStore) Allocate() (PageID, error) {
	if s.closed {
		return InvalidPage, ErrClosed
	}
	var id PageID
	if n := len(s.freed); n > 0 {
		id, s.freed = s.freed[n-1], s.freed[:n-1]
		delete(s.isFree, id)
	} else {
		s.numPages++
		id = PageID(s.numPages)
	}
	s.blank[id] = true
	return id, nil
}

func (s *FileStore) offset(id PageID) int64 {
	return int64(id-1) * int64(s.pageSize)
}

func (s *FileStore) check(id PageID) error {
	if id == InvalidPage || int(id) > s.numPages {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if s.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// Free implements Store.
func (s *FileStore) Free(id PageID) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	s.freed = append(s.freed, id)
	s.isFree[id] = true
	delete(s.blank, id)
	return nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("pager: buffer size %d != page size %d", len(buf), s.pageSize)
	}
	if s.blank[id] {
		clear(buf)
		return nil
	}
	if _, err := s.f.ReadAt(buf, s.offset(id)); err != nil {
		return fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.check(id); err != nil {
		return err
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("pager: buffer size %d != page size %d", len(buf), s.pageSize)
	}
	if _, err := s.f.WriteAt(buf, s.offset(id)); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", id, err)
	}
	delete(s.blank, id)
	return nil
}

// NumAllocated implements Store.
func (s *FileStore) NumAllocated() int { return s.numPages - len(s.freed) }

// Close implements Store.
func (s *FileStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// FreeIDs returns the sorted list of currently freed page ids. Exposed for
// tests and diagnostics.
func FreeIDs(s Store) []PageID {
	var ids []PageID
	switch st := s.(type) {
	case *MemStore:
		ids = append(ids, st.freed...)
	case *FileStore:
		ids = append(ids, st.freed...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
