package pqueue

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
	"distjoin/internal/racecheck"
	"distjoin/internal/stats"
)

// residentPages counts the page buffers a queue holds in memory: the class
// tails, the spare tails of emptied classes and the read-back page.
func residentPages(q *HybridQueue[elem]) int {
	n := len(q.disk.free)
	if q.disk.rbuf != nil {
		n++
	}
	for c := range q.disk.classes {
		if q.disk.classes[c].tail != nil {
			n++
		}
	}
	return n
}

// TestHybridResidentPagesBounded is the memory bound of the disk tier: with
// 10⁵ keys over 5,000 buckets the queue never holds more than one page per
// radix class plus the read-back page — bits.Len(5,000)+1 = 14, where a tail
// page per bucket would hold thousands.
func TestHybridResidentPagesBounded(t *testing.T) {
	const buckets, keys = 5000, 100_000
	q, _ := newHybrid(t, 1, nil)
	rnd := rand.New(rand.NewSource(5))
	bound := bits.Len(buckets) + 1
	peak := 0
	check := func(when string, i int) {
		t.Helper()
		n := residentPages(q)
		if peak = max(peak, n); n > bound {
			t.Fatalf("%s %d: %d page buffers resident, bound %d", when, i, n, bound)
		}
	}
	for i := 0; i < keys; i++ {
		if err := q.Insert(elem{dist: rnd.Float64() * buckets, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			check("insert", i)
		}
	}
	check("insert", keys)
	last := -1.0
	for i := 0; ; i++ {
		v, ok, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != keys {
				t.Fatalf("drained %d of %d", i, keys)
			}
			break
		}
		if v.dist < last {
			t.Fatalf("pop %d: %g after %g", i, v.dist, last)
		}
		last = v.dist
		if i%997 == 0 {
			check("pop", i)
		}
	}
	if peak < bits.Len(buckets)/2 {
		t.Fatalf("peak of %d resident pages: the workload did not populate the classes", peak)
	}
}

// perPage is how many elements a page of q's disk tier holds: one record,
// each element its key and its encoding.
func perPage(q *HybridQueue[elem]) int64 {
	return int64((q.disk.cfg.PageSize - pageHeaderSize - recHeaderSize) / q.disk.width)
}

// TestHybridPageWriteBounds pins what a spill costs: every spilled element
// is written once when its tail page fills and at most once more per class
// it is re-routed through, and a page is written only when it is full —
// between ⌈spilled/perPage⌉ − classes and ⌈spilled/perPage⌉ × (1 + classes)
// page writes, whatever the number of buckets.
func TestHybridPageWriteBounds(t *testing.T) {
	for _, buckets := range []int{20, 700, 5000} {
		c := &stats.Counters{}
		q, publish := newHybrid(t, 1, c)
		rnd := rand.New(rand.NewSource(int64(buckets)))
		const keys = 30_000
		for i := 0; i < keys; i++ {
			if err := q.Insert(elem{dist: rnd.Float64() * float64(buckets), id: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(drain[elem](t, q)); got != keys {
			t.Fatalf("drained %d of %d", got, keys)
		}
		publish()
		classes := int64(bits.Len(uint(buckets)))
		perPage := perPage(q)
		pages := (c.QueueDiskPairs + perPage - 1) / perPage
		if c.QueueDiskPairs < keys*9/10 {
			t.Fatalf("%d buckets: only %d of %d keys spilled", buckets, c.QueueDiskPairs, keys)
		}
		if lo, hi := pages-classes, pages*(1+classes); c.QueueWrites < lo || c.QueueWrites > hi {
			t.Errorf("%d buckets: %d page writes for %d spilled (%d per page), want within [%d, %d]",
				buckets, c.QueueWrites, c.QueueDiskPairs, perPage, lo, hi)
		}
		// Every written page is read back exactly once.
		if c.QueueReads != c.QueueWrites {
			t.Errorf("%d buckets: %d page reads, %d page writes", buckets, c.QueueReads, c.QueueWrites)
		}
		t.Logf("%d buckets: %d spilled, %d page writes (%.3f per pair; 1/perPage = %.3f)",
			buckets, c.QueueDiskPairs, c.QueueWrites, float64(c.QueueWrites)/float64(c.QueueDiskPairs), 1/float64(perPage))
	}
}

// poisonedAt drains q, which holds inserted elements, until Pop fails, and
// checks the failure's aftermath: the elements popped before it are in
// order, Len() counts exactly the elements not popped, and every later
// operation returns the same error.
func poisonedAt(t *testing.T, q *HybridQueue[elem], inserted int) error {
	t.Helper()
	last, popped := -1.0, 0
	for {
		v, ok, err := q.Pop()
		if err != nil {
			if q.Len() != inserted-popped {
				t.Fatalf("poisoned after %d of %d pops: Len() = %d, want %d", popped, inserted, q.Len(), inserted-popped)
			}
			if _, _, again := q.Pop(); again != err {
				t.Fatalf("Pop after failure: %v, want latched %v", again, err)
			}
			if _, _, again := q.Peek(); again != err {
				t.Fatalf("Peek after failure: %v, want latched %v", again, err)
			}
			if again := q.Insert(elem{dist: 1}); again != err {
				t.Fatalf("Insert after failure: %v, want latched %v", again, err)
			}
			return err
		}
		if !ok {
			if popped != inserted {
				t.Fatalf("drained %d of %d without an error", popped, inserted)
			}
			return nil
		}
		if v.dist < last {
			t.Fatalf("pop %d: %g after %g", popped, v.dist, last)
		}
		last = v.dist
		popped++
	}
}

// spillSpread inserts n elements over 40 buckets beyond the list tier, so
// the disk tier holds several classes, each with a chain of sealed pages. It
// stops at the first failed insert and returns how many went in.
func spillSpread(q *HybridQueue[elem], n int) (inserted int, err error) {
	rnd := rand.New(rand.NewSource(12))
	for ; inserted < n && err == nil; inserted++ {
		err = q.Insert(elem{dist: 2 + rnd.Float64()*40, id: uint64(inserted)})
	}
	if err != nil {
		inserted--
	}
	return inserted, err
}

// TestHybridChecksumEverySealedPage flips one byte — in the header, the
// checksum, an element, the slack — of each page the disk tier sealed, one
// page per run: loading it must fail with ErrPageChecksum and poison the
// queue, never decode into elements.
func TestHybridChecksumEverySealedPage(t *testing.T) {
	const n, pageSize = 400, 128
	build := func() (*HybridQueue[elem], *pager.MemStore) {
		mem, err := pager.NewMemStore(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{DT: 1, PageSize: pageSize, Store: mem})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		if _, err := spillSpread(q, n); err != nil {
			t.Fatal(err)
		}
		return q, mem
	}
	_, mem := build()
	pages := mem.NumAllocated()
	if pages < 30 {
		t.Fatalf("only %d sealed pages", pages)
	}
	buf := make([]byte, pageSize)
	for page := 1; page <= pages; page++ {
		// One offset per region, rotating so every region is hit on many pages.
		off := []int{0, 4, 6, pageCRCOffset, 13, pageHeaderSize + 3, pageHeaderSize + 16*5 + 9, pageSize - 1}[page%8]
		q, mem := build()
		id := pager.PageID(page)
		if err := mem.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		buf[off] ^= 0x40
		if err := mem.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := poisonedAt(t, q, n); !errors.Is(err, ErrPageChecksum) {
			t.Fatalf("page %d byte %d flipped: drain ended with %v, want ErrPageChecksum", page, off, err)
		}
	}
}

// TestHybridFaultAtEveryOp kills the store after its k-th operation —
// allocate, write, read or free alike — for every k a fill and a drain
// perform, and fails the k-th read and the k-th write on their own: each
// fault must surface as the injected error, exactly once injected, and leave
// the queue poisoned with Len() exact.
func TestHybridFaultAtEveryOp(t *testing.T) {
	const n = 300
	run := func(cfg faultstore.Config) (faultstore.Stats, error) {
		t.Helper()
		q, fs := newFaultHybrid(t, cfg)
		inserted, err := spillSpread(q, n)
		if err != nil {
			// A failed insert is not in the queue.
			if q.Len() != inserted {
				t.Fatalf("%+v: Len() = %d after insert %d failed", cfg, q.Len(), inserted)
			}
			if again := q.Insert(elem{dist: 1}); again != err {
				t.Fatalf("%+v: Insert after failure: %v, want latched %v", cfg, again, err)
			}
			return fs.Stats(), err
		}
		err = poisonedAt(t, q, inserted)
		return fs.Stats(), err
	}
	healthy, err := run(faultstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Reads < 20 || healthy.Writes < 20 {
		t.Fatalf("the scenario performs only %d reads and %d writes", healthy.Reads, healthy.Writes)
	}
	for k := 1; k < int(healthy.Ops); k++ {
		st, err := run(faultstore.Config{CrashAfterOps: k})
		if !errors.Is(err, faultstore.ErrInjected) || !st.Crashed {
			t.Fatalf("crash after %d of %d ops: ended with %v (crashed %v)", k, healthy.Ops, err, st.Crashed)
		}
	}
	for k := 1; k <= int(healthy.Reads); k++ {
		st, err := run(faultstore.Config{FailReadAt: k})
		if !errors.Is(err, faultstore.ErrInjected) || st.PermanentErrors != 1 {
			t.Fatalf("failed read %d of %d: ended with %v (%d injected)", k, healthy.Reads, err, st.PermanentErrors)
		}
	}
	for k := 1; k <= int(healthy.Writes); k++ {
		st, err := run(faultstore.Config{FailWriteAt: k})
		if !errors.Is(err, faultstore.ErrInjected) || st.PermanentErrors != 1 {
			t.Fatalf("failed write %d of %d: ended with %v (%d injected)", k, healthy.Writes, err, st.PermanentErrors)
		}
	}
}

// TestHybridStorePagesConserved checks, all through a fill and an
// interleaved drain, that the store's allocated pages are exactly the pages
// the class chains link, and that a drained queue holds none.
func TestHybridStorePagesConserved(t *testing.T) {
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{DT: 1, PageSize: 256, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rnd := rand.New(rand.NewSource(41))
	floor, id := 0.0, uint64(0)
	for step := 0; step < 6000; step++ {
		// Monotone use, as the join's: nothing inserted below the last pop.
		if step < 4000 || rnd.Intn(3) == 0 {
			id++
			if err := q.Insert(elem{dist: floor + rnd.Float64()*300, id: id}); err != nil {
				t.Fatal(err)
			}
		}
		if step%2 == 1 {
			v, ok, err := q.Pop()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				floor = v.dist
			}
		}
		if step%250 == 0 {
			if err := q.disk.CheckStore(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if store.NumAllocated() == 0 {
		t.Fatal("nothing on disk mid-run")
	}
	drain[elem](t, q)
	if err := q.disk.CheckStore(); err != nil {
		t.Fatal(err)
	}
	if n := store.NumAllocated(); n != 0 {
		t.Fatalf("%d pages still allocated after a full drain", n)
	}
}

// TestHybridAdaptiveRetiersThroughClasses: when an adaptive queue fixes DT,
// the sample it held in the heap is re-tiered — most of it through the
// radix classes onto disk — and still pops in order.
func TestHybridAdaptiveRetiersThroughClasses(t *testing.T) {
	store, _ := pager.NewMemStore(256)
	c := &stats.Counters{}
	m, publish := meterInto(c)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		AdaptiveSample: 2000, PageSize: 256, Store: store, Meter: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rnd := rand.New(rand.NewSource(8))
	mq := NewMemQueue[elem](elemLess, nil)
	insert := func(i int) {
		e := elem{dist: rnd.ExpFloat64() * 50, id: uint64(i)}
		mq.Insert(e)
		if err := q.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1999; i++ {
		insert(i)
	}
	if q.disk.DT() != 0 || q.disk.Len() != 0 || store.NumAllocated() != 0 {
		t.Fatalf("before the sample is full: DT %g, %d on disk, %d pages", q.disk.DT(), q.disk.Len(), store.NumAllocated())
	}
	insert(1999)
	// DT is the sample's lower quartile: about half the sample lies beyond
	// 2·DT and was spilled, over many buckets, through several classes.
	populated := 0
	for i := range q.disk.classes {
		if q.disk.classes[i].count > 0 {
			populated++
		}
	}
	if q.disk.DT() <= 0 || q.disk.Len() < 600 || populated < 3 || store.NumAllocated() == 0 {
		t.Fatalf("after re-tiering: DT %g, %d on disk in %d classes, %d pages", q.disk.DT(), q.disk.Len(), populated, store.NumAllocated())
	}
	if err := q.disk.CheckStore(); err != nil {
		t.Fatal(err)
	}
	for i := 2000; i < 3000; i++ {
		insert(i)
	}
	got, want := drain[elem](t, q), drain[elem](t, mq)
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %v, want %v", i, got[i], want[i])
		}
	}
	if publish(); c.QueueDiskPairs < 600 || c.QueueWrites == 0 || c.QueueReads != c.QueueWrites {
		t.Fatalf("re-tiering unaccounted: %+v", c)
	}
}

// TestAllocHybridSteadyState gates the disk tier's memory behaviour: once
// its page buffers exist, spilling, writing pages out, reading them back and
// re-routing elements between classes allocate nothing.
func TestAllocHybridSteadyState(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{DT: 1, PageSize: 256, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rnd := rand.New(rand.NewSource(2))
	floor, id := 0.0, uint64(0)
	var spilled, routed int
	cycle := func() {
		// 600 elements over the next 200 buckets, then all of them popped:
		// tails fill and are written, classes are emptied and re-routed.
		for i := 0; i < 600; i++ {
			id++
			if err := q.Insert(elem{dist: floor + 2 + rnd.Float64()*200, id: id}); err != nil {
				t.Fatal(err)
			}
		}
		spilled += q.disk.Len()
		for q.Len() > 0 {
			before := q.disk.Len()
			v, _, err := q.Pop()
			if err != nil {
				t.Fatal(err)
			}
			if q.disk.Len() > 0 && q.disk.Len() < before {
				routed += q.disk.Len()
			}
			floor = v.dist
		}
	}
	for i := 0; i < 5; i++ {
		cycle() // buffers, list, heap slab and the store's free list reach their size
	}
	spilled, routed = 0, 0
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a steady-state cycle of 600 spills and their reload allocates %v times, want 0", n)
	}
	if spilled < 10_000 || routed < 10_000 {
		t.Fatalf("the cycles spilled %d and re-routed past %d elements: not the path under test", spilled, routed)
	}
}
