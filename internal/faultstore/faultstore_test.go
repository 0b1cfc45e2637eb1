package faultstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"distjoin/internal/pager"
)

func newStore(t *testing.T, cfg Config) (*Store, pager.PageID) {
	t.Helper()
	mem, err := pager.NewMemStore(64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	fs := New(mem, cfg)
	fs.SetArmed(false)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(id, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	fs.SetArmed(true)
	return fs, id
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, TransientReadProb: 0.5}
	run := func() []bool {
		fs, id := newStore(t, cfg)
		var outcomes []bool
		buf := make([]byte, 64)
		for i := 0; i < 50; i++ {
			outcomes = append(outcomes, fs.ReadPage(id, buf) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	anyFault := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
		if !a[i] {
			anyFault = true
		}
	}
	if !anyFault {
		t.Fatal("p=0.5 over 50 reads injected nothing")
	}
}

func TestTransientErrorsAreRetryable(t *testing.T) {
	fs, id := newStore(t, Config{Seed: 1, TransientReadProb: 1})
	err := fs.ReadPage(id, make([]byte, 64))
	if !pager.IsTransient(err) {
		t.Fatalf("transient fault not classified transient: %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected fault does not wrap ErrInjected: %v", err)
	}
}

func TestPermanentErrorsAreNotRetryable(t *testing.T) {
	fs, id := newStore(t, Config{Seed: 1, PermanentWriteProb: 1})
	err := fs.WritePage(id, make([]byte, 64))
	if err == nil || pager.IsTransient(err) {
		t.Fatalf("want non-transient error, got %v", err)
	}
}

func TestFailReadAtNth(t *testing.T) {
	fs, id := newStore(t, Config{FailReadAt: 3})
	buf := make([]byte, 64)
	for i := 1; i <= 5; i++ {
		err := fs.ReadPage(id, buf)
		if (i == 3) != (err != nil) {
			t.Fatalf("read %d: err=%v, want failure exactly at read 3", i, err)
		}
	}
}

func TestCorruptReadFlipsBytes(t *testing.T) {
	fs, id := newStore(t, Config{Seed: 9, CorruptReadAt: 1})
	buf := make([]byte, 64)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, bytes.Repeat([]byte{7}, 64)) {
		t.Fatal("corrupt read returned pristine bytes")
	}
	if got := fs.Stats().CorruptedReads; got != 1 {
		t.Fatalf("CorruptedReads=%d, want 1", got)
	}
	// The page itself is intact: the next read sees the real bytes.
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{7}, 64)) {
		t.Fatal("corruption leaked into the underlying page")
	}
}

func TestCrashAfterOps(t *testing.T) {
	fs, id := newStore(t, Config{CrashAfterOps: 2})
	buf := make([]byte, 64)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	for i := 0; i < 3; i++ {
		err := fs.ReadPage(id, buf)
		if !errors.Is(err, pager.ErrClosed) {
			t.Fatalf("post-crash op: %v, want ErrClosed", err)
		}
	}
	if _, err := fs.Allocate(); !errors.Is(err, pager.ErrClosed) {
		t.Fatal("allocate should fail after crash")
	}
	if !fs.Stats().Crashed {
		t.Fatal("Stats().Crashed not set")
	}
}

func TestDisarmedIsTransparent(t *testing.T) {
	fs, id := newStore(t, Config{TransientReadProb: 1, CrashAfterOps: 1})
	fs.SetArmed(false)
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatalf("disarmed read failed: %v", err)
		}
	}
	if fs.Stats().Ops != 0 {
		t.Fatal("disarmed ops were counted")
	}
}

// TestSlowChargesEveryPageIO: with SlowProb 1 the store is a disk with a
// uniform access cost — the simulated latency of the experiments. Every
// ReadPage and WritePage is charged SlowLatency, Allocate and Free are not,
// and an operation sleeping out its charge holds up no other operation.
func TestSlowChargesEveryPageIO(t *testing.T) {
	const lat = 2 * time.Millisecond
	fs, id := newStore(t, Config{SlowProb: 1, SlowLatency: lat})
	buf := make([]byte, 64)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 5*lat {
		t.Fatalf("5 reads took only %v, want >= %v", elapsed, 5*lat)
	}
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	extra, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(extra); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().SlowOps; got != 6 {
		t.Fatalf("SlowOps=%d after 5 reads, a write, an allocate and a free; want 6", got)
	}
	if fs.PageSize() != 64 || fs.NumAllocated() != 1 {
		t.Fatalf("page size %d and %d pages allocated, the inner store has 64 and 1", fs.PageSize(), fs.NumAllocated())
	}
	if err := fs.ReadPage(id, buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("a slowed read returned %v, %v; want the page as written", buf, err)
	}

	slow, id := newStore(t, Config{SlowProb: 1, SlowLatency: 300 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- slow.ReadPage(id, make([]byte, 64)) }()
	start = time.Now()
	for slow.Stats().SlowOps == 0 {
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(start); waited > 150*time.Millisecond {
		t.Fatalf("Stats waited %v on a read sleeping out its latency", waited)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
