// Package faultstore wraps a pager.Store with deterministic, seedable
// fault injection: transient and permanent read/write errors, corrupted
// (torn) pages, latency spikes, and a simulated crash after a chosen
// number of operations. It exists so that every error path of the
// hybrid-queue / engine stack can be exercised reproducibly in tests and
// experiments.
//
// Faults are drawn from a private rand.Rand, so a given (Config, access
// sequence) pair always produces the same fault schedule. Transient
// errors wrap pager.ErrTransient and are retryable through
// pager.RetryStore; every injected error also wraps ErrInjected so tests
// can tell injected faults from real ones.
package faultstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"distjoin/internal/pager"
)

// ErrInjected is wrapped into every error produced by a Store, so callers
// can distinguish injected faults from genuine storage failures.
var ErrInjected = errors.New("faultstore: injected fault")

// Config selects which faults a Store injects. Probabilities are per
// operation in [0,1]; the *At counters are 1-based operation ordinals of
// the matching kind (0 disables them). The zero Config injects nothing.
type Config struct {
	// Seed initialises the fault schedule's random source.
	Seed int64

	// TransientReadProb / TransientWriteProb inject retryable errors
	// (wrapping pager.ErrTransient) on ReadPage / WritePage.
	TransientReadProb  float64
	TransientWriteProb float64

	// PermanentReadProb / PermanentWriteProb inject non-retryable errors.
	PermanentReadProb  float64
	PermanentWriteProb float64

	// CorruptReadProb flips bytes in the buffer returned by ReadPage
	// without reporting an error — a torn or bit-rotted page that only a
	// checksum can catch.
	CorruptReadProb float64

	// FailReadAt / FailWriteAt make the n-th read / write (1-based) fail
	// permanently. CorruptReadAt corrupts the n-th read instead.
	FailReadAt    int
	FailWriteAt   int
	CorruptReadAt int

	// CrashAfterOps simulates the store dying: once the total operation
	// count (reads + writes + allocates + frees) exceeds this value,
	// every call returns pager.ErrClosed. 0 disables.
	CrashAfterOps int

	// SlowProb delays a ReadPage or WritePage by SlowLatency before it
	// proceeds; Allocate and Free are never delayed. SlowProb 1 is a disk
	// with a uniform access cost.
	SlowProb    float64
	SlowLatency time.Duration
}

// Stats counts what a Store actually injected, for assertions in tests.
type Stats struct {
	Ops             int64
	Reads           int64
	Writes          int64
	TransientErrors int64
	PermanentErrors int64
	CorruptedReads  int64
	SlowOps         int64
	Crashed         bool
}

// Store implements pager.Store over an inner store, injecting faults per
// its Config. All methods are safe for concurrent use; the fault schedule
// is serialized under an internal mutex so it stays deterministic for a
// deterministic access sequence.
type Store struct {
	inner pager.Store
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	armed   bool
	stats   Stats
	crashed bool
}

// New wraps inner with fault injection per cfg. The store starts armed;
// use SetArmed(false) to build fixtures fault-free first.
func New(inner pager.Store, cfg Config) *Store {
	return &Store{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		armed: true,
	}
}

// SetArmed toggles fault injection. While disarmed the store is a
// transparent pass-through and consumes no randomness, so fixtures can be
// built deterministically before the faults start.
func (s *Store) SetArmed(armed bool) {
	s.mu.Lock()
	s.armed = armed
	s.mu.Unlock()
}

// Stats returns a snapshot of the injected-fault counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// fault is the per-operation injection decision, taken under s.mu so the
// random sequence is deterministic. It returns an error to inject, and
// whether to corrupt the read buffer afterwards.
func (s *Store) fault(read bool, id pager.PageID) (err error, corrupt bool) {
	// A slow operation sleeps after the unlock (defers run last in, first
	// out), so it holds up no other operation.
	var slow time.Duration
	defer func() { time.Sleep(slow) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return nil, false
	}
	s.stats.Ops++
	if s.crashed {
		return fmt.Errorf("%w: %w", ErrInjected, pager.ErrClosed), false
	}
	if s.cfg.CrashAfterOps > 0 && s.stats.Ops > int64(s.cfg.CrashAfterOps) {
		s.crashed = true
		s.stats.Crashed = true
		return fmt.Errorf("%w: store crashed after %d operations: %w",
			ErrInjected, s.cfg.CrashAfterOps, pager.ErrClosed), false
	}
	if s.cfg.SlowProb > 0 && s.rng.Float64() < s.cfg.SlowProb {
		s.stats.SlowOps++
		slow = s.cfg.SlowLatency
	}
	op, transientProb, permanentProb, failAt := "write", s.cfg.TransientWriteProb, s.cfg.PermanentWriteProb, s.cfg.FailWriteAt
	var n int64
	if read {
		s.stats.Reads++
		n = s.stats.Reads
		op, transientProb, permanentProb, failAt = "read", s.cfg.TransientReadProb, s.cfg.PermanentReadProb, s.cfg.FailReadAt
	} else {
		s.stats.Writes++
		n = s.stats.Writes
	}
	if failAt > 0 && n == int64(failAt) {
		s.stats.PermanentErrors++
		return fmt.Errorf("%w: permanent %s error on page %d (%s #%d)", ErrInjected, op, id, op, n), false
	}
	if permanentProb > 0 && s.rng.Float64() < permanentProb {
		s.stats.PermanentErrors++
		return fmt.Errorf("%w: permanent %s error on page %d", ErrInjected, op, id), false
	}
	if transientProb > 0 && s.rng.Float64() < transientProb {
		s.stats.TransientErrors++
		return fmt.Errorf("%w: %w on %s of page %d", ErrInjected, pager.ErrTransient, op, id), false
	}
	if read {
		if s.cfg.CorruptReadAt > 0 && n == int64(s.cfg.CorruptReadAt) {
			corrupt = true
		} else if s.cfg.CorruptReadProb > 0 && s.rng.Float64() < s.cfg.CorruptReadProb {
			corrupt = true
		}
		if corrupt {
			s.stats.CorruptedReads++
		}
	}
	return nil, corrupt
}

// corruptBuf flips a few bytes of buf, deterministically per schedule.
func (s *Store) corruptBuf(buf []byte) {
	if len(buf) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	flips := 1 + s.rng.Intn(4)
	for i := 0; i < flips; i++ {
		pos := s.rng.Intn(len(buf))
		buf[pos] ^= byte(1 + s.rng.Intn(255))
	}
}

// bookkeep is the fault gate for allocate/free, which only participate in
// the crash countdown (they are metadata operations, not page I/O).
func (s *Store) bookkeep() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return nil
	}
	s.stats.Ops++
	if s.crashed {
		return fmt.Errorf("%w: %w", ErrInjected, pager.ErrClosed)
	}
	if s.cfg.CrashAfterOps > 0 && s.stats.Ops > int64(s.cfg.CrashAfterOps) {
		s.crashed = true
		s.stats.Crashed = true
		return fmt.Errorf("%w: store crashed after %d operations: %w",
			ErrInjected, s.cfg.CrashAfterOps, pager.ErrClosed)
	}
	return nil
}

func (s *Store) PageSize() int { return s.inner.PageSize() }

func (s *Store) Allocate() (pager.PageID, error) {
	if err := s.bookkeep(); err != nil {
		return 0, err
	}
	return s.inner.Allocate()
}

func (s *Store) Free(id pager.PageID) error {
	if err := s.bookkeep(); err != nil {
		return err
	}
	return s.inner.Free(id)
}

func (s *Store) ReadPage(id pager.PageID, buf []byte) error {
	err, corrupt := s.fault(true, id)
	if err != nil {
		return err
	}
	if err := s.inner.ReadPage(id, buf); err != nil {
		return err
	}
	if corrupt {
		s.corruptBuf(buf)
	}
	return nil
}

func (s *Store) WritePage(id pager.PageID, data []byte) error {
	err, _ := s.fault(false, id)
	if err != nil {
		return err
	}
	return s.inner.WritePage(id, data)
}

func (s *Store) NumAllocated() int { return s.inner.NumAllocated() }

func (s *Store) Close() error { return s.inner.Close() }
