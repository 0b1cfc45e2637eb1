package qtrace

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

// RotatingFile is a size-capped io.WriteCloser for JSONL logs: when a write
// would push the active file past 64 MiB, the file rotates — path becomes
// path.1 and path.1 becomes path.2, the oldest archive falling off — and the
// write lands in a fresh file. A long-running daemon's slow-query log is
// therefore bounded at about 3 × 64 MiB on disk regardless of uptime.
//
// Rotation happens between writes, never inside one, so each JSONL line
// stays whole in exactly one file. Writes are serialized by an internal
// mutex; the Tracer's slow-query log writes one line per Write call, which
// makes the pair safe and line-atomic together.
type RotatingFile struct {
	path     string
	maxBytes int64

	mu   sync.Mutex
	f    *os.File
	size int64
}

// Rotation bounds.
const (
	slowLogMaxBytes = 64 << 20 // per file
	slowLogFiles    = 3        // active file + 2 archives
)

// OpenRotatingFile opens (creating or appending to) the log at path.
func OpenRotatingFile(path string) (*RotatingFile, error) {
	return openRotatingFile(path, slowLogMaxBytes)
}

// openRotatingFile is OpenRotatingFile with the per-file cap injected, for
// tests.
func openRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RotatingFile{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends p, rotating first when the active file would exceed the
// byte cap. A single write larger than the cap still lands whole (in its
// own fresh file) — lines are never split across files.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return 0, os.ErrClosed
	}
	if r.size > 0 && r.size+int64(len(p)) > r.maxBytes {
		if err := r.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := r.f.Write(p)
	r.size += int64(n)
	return n, err
}

// rotate shifts the archive chain and reopens a fresh active file. Caller
// holds mu.
func (r *RotatingFile) rotate() error {
	if err := r.f.Close(); err != nil {
		return err
	}
	r.f = nil
	// Shift path.(slowLogFiles-2) → path.(slowLogFiles-1) … path → path.1;
	// the archive past the retention bound falls off (os.Rename replaces it).
	for i := slowLogFiles - 2; i >= 1; i-- {
		os.Rename(r.archive(i), r.archive(i+1))
	}
	if err := os.Rename(r.path, r.archive(1)); err != nil {
		return fmt.Errorf("qtrace: rotating %s: %w", r.path, err)
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	r.f = f
	r.size = 0
	return nil
}

// archive names the i-th rotated file: path.1 is the newest archive.
func (r *RotatingFile) archive(i int) string {
	return r.path + "." + strconv.Itoa(i)
}

// Close closes the active file. Further writes fail with os.ErrClosed.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
