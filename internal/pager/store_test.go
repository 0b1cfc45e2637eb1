package pager

import (
	"bytes"
	"testing"
)

// storeFactories lets every test run against both backings.
var storeFactories = map[string]func(t *testing.T, pageSize int) Store{
	"mem": func(t *testing.T, pageSize int) Store {
		s, err := NewMemStore(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		return s
	},
	"file": func(t *testing.T, pageSize int) Store {
		s, err := NewFileStore(t.TempDir(), pageSize)
		if err != nil {
			t.Fatal(err)
		}
		return s
	},
}

func TestStoreRoundTrip(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 64)
			defer s.Close()
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id == InvalidPage {
				t.Fatal("allocated invalid page id")
			}
			out := make([]byte, 64)
			for i := range out {
				out[i] = byte(i)
			}
			if err := s.WritePage(id, out); err != nil {
				t.Fatal(err)
			}
			in := make([]byte, 64)
			if err := s.ReadPage(id, in); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(in, out) {
				t.Fatal("read back different bytes")
			}
		})
	}
}

func TestStoreAllocateZeroes(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 32)
			defer s.Close()
			id, _ := s.Allocate()
			s.WritePage(id, bytes.Repeat([]byte{0xff}, 32))
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			id2, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id2 != id {
				t.Fatalf("expected reuse of page %d, got %d", id, id2)
			}
			buf := make([]byte, 32)
			s.ReadPage(id2, buf)
			if !bytes.Equal(buf, make([]byte, 32)) {
				t.Fatal("reused page not zeroed")
			}
		})
	}
}

func TestStoreErrors(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 16)
			defer s.Close()
			buf := make([]byte, 16)
			if err := s.ReadPage(InvalidPage, buf); err == nil {
				t.Error("read of invalid page succeeded")
			}
			if err := s.ReadPage(99, buf); err == nil {
				t.Error("read of out-of-range page succeeded")
			}
			id, _ := s.Allocate()
			if err := s.ReadPage(id, make([]byte, 8)); err == nil {
				t.Error("short buffer read succeeded")
			}
			if err := s.WritePage(id, make([]byte, 8)); err == nil {
				t.Error("short buffer write succeeded")
			}
			s.Free(id)
			if err := s.ReadPage(id, buf); err == nil {
				t.Error("read of freed page succeeded")
			}
			if err := s.WritePage(id, buf); err == nil {
				t.Error("write of freed page succeeded")
			}
		})
	}
}

func TestStoreNumAllocated(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 16)
			defer s.Close()
			var ids []PageID
			for i := 0; i < 5; i++ {
				id, _ := s.Allocate()
				ids = append(ids, id)
			}
			if s.NumAllocated() != 5 {
				t.Fatalf("NumAllocated = %d, want 5", s.NumAllocated())
			}
			s.Free(ids[2])
			s.Free(ids[4])
			if s.NumAllocated() != 3 {
				t.Fatalf("NumAllocated after frees = %d, want 3", s.NumAllocated())
			}
			if got := FreeIDs(s); len(got) != 2 {
				t.Fatalf("FreeIDs = %v", got)
			}
		})
	}
}

func TestStoreClosed(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 16)
			s.Close()
			if _, err := s.Allocate(); err == nil {
				t.Error("Allocate on closed store succeeded")
			}
		})
	}
}

func TestBadPageSize(t *testing.T) {
	if _, err := NewMemStore(0); err == nil {
		t.Error("NewMemStore(0) succeeded")
	}
	if _, err := NewFileStore(t.TempDir(), -1); err == nil {
		t.Error("NewFileStore(-1) succeeded")
	}
}

func TestStoreManyPages(t *testing.T) {
	for name, mk := range storeFactories {
		t.Run(name, func(t *testing.T) {
			s := mk(t, 128)
			defer s.Close()
			const n = 200
			for i := 0; i < n; i++ {
				id, err := s.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				buf := bytes.Repeat([]byte{byte(i)}, 128)
				if err := s.WritePage(id, buf); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 128)
			for i := 0; i < n; i++ {
				if err := s.ReadPage(PageID(i+1), buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i) || buf[127] != byte(i) {
					t.Fatalf("page %d content wrong", i+1)
				}
			}
		})
	}
}

// TestFileStoreBlankPages: Allocate writes nothing. A fresh page past the
// end of the file and a reused page whose old bytes are still in the file
// both read as zeros until written; Sync puts every allocated page in the
// file, so a store reopened on it holds them all, the blank ones as zeros.
func TestFileStoreBlankPages(t *testing.T) {
	const size = 64
	path := t.TempDir() + "/blank.pages"
	s, err := OpenNamedFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fileSize := func() int64 {
		t.Helper()
		info, err := s.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	readsZero := func(s *FileStore, id PageID) {
		t.Helper()
		buf := bytes.Repeat([]byte{0xaa}, size)
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, size)) {
			t.Fatalf("blank page %d reads %v", id, buf)
		}
	}
	full := bytes.Repeat([]byte{7}, size)
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	if got := fileSize(); got != 0 {
		t.Fatalf("two allocations wrote %d bytes", got)
	}
	readsZero(s, a) // past the end of the file
	if err := s.WritePage(a, full); err != nil {
		t.Fatal(err)
	}
	readsZero(s, b)
	if err := s.WritePage(b, full); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if reused, _ := s.Allocate(); reused != a {
		t.Fatalf("reused page %d, want %d", reused, a)
	}
	readsZero(s, a) // its old bytes are still in the file
	c, _ := s.Allocate()
	if got := fileSize(); got != 2*size {
		t.Fatalf("file is %d bytes after two written pages", got)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != 3*size {
		t.Fatalf("Sync left the file %d bytes for 3 allocated pages", got)
	}

	s2, err := OpenNamedFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumAllocated() != 3 {
		t.Fatalf("reopened NumAllocated = %d, want 3", s2.NumAllocated())
	}
	readsZero(s2, a)
	readsZero(s2, c)
	got := make([]byte, size)
	if err := s2.ReadPage(b, got); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("written page reads %v after reopen (%v)", got, err)
	}
}

func TestOpenNamedFileStore(t *testing.T) {
	path := t.TempDir() + "/named.pages"
	s, err := OpenNamedFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate()
	buf := bytes.Repeat([]byte{9}, 64)
	if err := s.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen: the page count and contents persist.
	s2, err := OpenNamedFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumAllocated() != 1 {
		t.Fatalf("reopened NumAllocated = %d", s2.NumAllocated())
	}
	got := make([]byte, 64)
	if err := s2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatal("contents lost across reopen")
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	// Misaligned file length is rejected.
	if _, err := OpenNamedFileStore(path, 48); err == nil {
		t.Fatal("misaligned page size accepted")
	}
	// Bad page size is rejected.
	if _, err := OpenNamedFileStore(path, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
	// Sync after close errors.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err == nil {
		t.Fatal("Sync on closed store succeeded")
	}
}
