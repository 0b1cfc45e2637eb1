package pqueue

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"distjoin/internal/meter"
	"distjoin/internal/pager"
	"distjoin/internal/stats"
)

// elem is a minimal fixed-size element for queue tests.
type elem struct {
	dist float64
	id   uint64
}

func elemLess(a, b elem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

func elemKey(e elem) float64 { return e.dist }

// elemCodec serializes elem in 16 bytes.
type elemCodec struct{}

func (elemCodec) Size() int { return 16 }

func (elemCodec) Encode(dst []byte, v elem) {
	bits := math.Float64bits(v.dist)
	for i := 0; i < 8; i++ {
		dst[i] = byte(bits >> (8 * i))
		dst[8+i] = byte(v.id >> (8 * i))
	}
}

func (elemCodec) Decode(src []byte) elem {
	var bits, id uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(src[i]) << (8 * i)
		id |= uint64(src[8+i]) << (8 * i)
	}
	return elem{dist: math.Float64frombits(bits), id: id}
}

// meterInto returns a meter that folds into c each time publish is called
// (an engine folds at every Next return; a bare queue has no steps).
func meterInto(c *stats.Counters) (m *meter.Meter, publish func()) {
	m = meter.Begin(meter.Sinks{Counters: c}, "test")
	return m, func() { m.EndStep(meter.PhaseEmit) }
}

// newHybrid builds a hybrid queue over an in-memory store whose accounting
// folds into c (nil: unmetered) when the returned publish is called.
func newHybrid(t *testing.T, dt float64, c *stats.Counters) (q *HybridQueue[elem], publish func()) {
	t.Helper()
	store, err := pager.NewMemStore(256)
	if err != nil {
		t.Fatal(err)
	}
	m, publish := meterInto(c)
	q, err = NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: dt, PageSize: 256, Store: store, Meter: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, publish
}

// popper is the part of a queue drain uses.
type popper[T any] interface{ Pop() (T, bool, error) }

func drain[T any](t *testing.T, q popper[T]) []T {
	t.Helper()
	var out []T
	for {
		v, ok, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestMemQueueOrder(t *testing.T) {
	q := NewMemQueue[elem](elemLess, nil)
	for _, d := range []float64{5, 1, 3, 2, 4} {
		q.Insert(elem{dist: d})
	}
	got := drain[elem](t, q)
	for i, e := range got {
		if e.dist != float64(i+1) {
			t.Fatalf("pop %d = %g", i, e.dist)
		}
	}
}

func TestMemQueuePeek(t *testing.T) {
	q := NewMemQueue[elem](elemLess, nil)
	if _, ok, _ := q.Peek(); ok {
		t.Fatal("peek on empty queue returned element")
	}
	q.Insert(elem{dist: 2})
	q.Insert(elem{dist: 1})
	v, ok, _ := q.Peek()
	if !ok || v.dist != 1 {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an element")
	}
}

func TestHybridAllTiersOrder(t *testing.T) {
	c := &stats.Counters{}
	q, publish := newHybrid(t, 10, c) // heap < 10, list [10, 20), disk >= 20
	dists := []float64{5, 15, 25, 35, 2, 95, 12, 55, 8, 42, 19, 20, 0.5, 77}
	for i, d := range dists {
		if err := q.Insert(elem{dist: d, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != len(dists) {
		t.Fatalf("Len = %d", q.Len())
	}
	if publish(); c.QueueDiskPairs == 0 {
		t.Fatal("nothing spilled to disk")
	}
	got := drain[elem](t, q)
	want := append([]float64(nil), dists...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].dist != want[i] {
			t.Fatalf("pop %d = %g, want %g", i, got[i].dist, want[i])
		}
	}
}

func TestHybridManyElements(t *testing.T) {
	q, _ := newHybrid(t, 1, nil) // tiny DT forces many buckets
	rnd := rand.New(rand.NewSource(9))
	n := 5000
	var want []float64
	for i := 0; i < n; i++ {
		d := rnd.Float64() * 100
		want = append(want, d)
		if err := q.Insert(elem{dist: d, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(want)
	got := drain[elem](t, q)
	for i := range got {
		if got[i].dist != want[i] {
			t.Fatalf("pop %d = %g, want %g", i, got[i].dist, want[i])
		}
	}
}

func TestHybridInterleavedInsertPop(t *testing.T) {
	// The join inserts children with distance >= the popped pair's
	// distance; model that pattern and assert popped order never goes
	// backwards.
	q, _ := newHybrid(t, 5, nil)
	rnd := rand.New(rand.NewSource(17))
	q.Insert(elem{dist: 0})
	last := -1.0
	popped := 0
	for popped < 2000 {
		v, ok, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		popped++
		if v.dist < last {
			t.Fatalf("order violated: %g after %g", v.dist, last)
		}
		last = v.dist
		// Spawn a few children with larger distances.
		if popped < 500 {
			for k := 0; k < 4; k++ {
				q.Insert(elem{dist: v.dist + rnd.Float64()*40, id: uint64(popped*10 + k)})
			}
		}
	}
	if popped < 500 {
		t.Fatalf("popped only %d", popped)
	}
}

func TestHybridPeek(t *testing.T) {
	q, _ := newHybrid(t, 1, nil)
	// Everything on disk: peek must trigger refill.
	for _, d := range []float64{50, 30, 70} {
		q.Insert(elem{dist: d})
	}
	v, ok, err := q.Peek()
	if err != nil || !ok || v.dist != 30 {
		t.Fatalf("Peek = %v %v %v", v, ok, err)
	}
	if q.Len() != 3 {
		t.Fatalf("Len after peek = %d", q.Len())
	}
}

func TestHybridEmpty(t *testing.T) {
	q, _ := newHybrid(t, 1, nil)
	if _, ok, err := q.Pop(); ok || err != nil {
		t.Fatal("empty queue popped something")
	}
	q.Insert(elem{dist: 100}) // straight to disk
	if v, ok, _ := q.Pop(); !ok || v.dist != 100 {
		t.Fatalf("Pop = %v %v", v, ok)
	}
	if _, ok, _ := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
	// Queue remains usable after draining.
	q.Insert(elem{dist: 1})
	if v, ok, _ := q.Pop(); !ok || v.dist != 1 {
		t.Fatalf("Pop after drain = %v %v", v, ok)
	}
}

func TestHybridConfigValidation(t *testing.T) {
	for _, dt := range []float64{-1, math.NaN()} {
		if _, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{DT: dt}); err == nil {
			t.Fatalf("DT=%g accepted", dt)
		}
	}
	if _, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{DT: 1, PageSize: 16}); err == nil {
		t.Fatal("element bigger than page accepted")
	}
}

func TestHybridAdaptive(t *testing.T) {
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		AdaptiveSample: 100, PageSize: 256, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rnd := rand.New(rand.NewSource(3))
	var want []float64
	for i := 0; i < 1000; i++ {
		d := rnd.Float64() * 100
		want = append(want, d)
		if err := q.Insert(elem{dist: d, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if q.disk.DT() == 0 {
		t.Fatal("adaptive DT not fixed after sample")
	}
	sort.Float64s(want)
	got := drain[elem](t, q)
	for i := range got {
		if got[i].dist != want[i] {
			t.Fatalf("pop %d = %g, want %g", i, got[i].dist, want[i])
		}
	}
}

func TestHybridCountsMaxQueueSize(t *testing.T) {
	c := &stats.Counters{}
	q, publish := newHybrid(t, 10, c)
	for i := 0; i < 50; i++ {
		q.Insert(elem{dist: float64(i)})
	}
	for i := 0; i < 20; i++ {
		q.Pop()
	}
	if publish(); c.MaxQueueSize != 50 {
		t.Fatalf("MaxQueueSize = %d, want 50", c.MaxQueueSize)
	}
	if c.QueueInserts != 50 || c.QueuePops != 20 {
		t.Fatalf("inserts=%d pops=%d", c.QueueInserts, c.QueuePops)
	}
}

// matchesMem feeds keys to a hybrid queue of increment dt and to a memory
// queue, pops both after every insert pop selects and then drains both: the
// two must pop the same sequence.
func matchesMem(dt float64, keys []float64, pop func(i int) bool) error {
	store, _ := pager.NewMemStore(512)
	hq, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: dt, PageSize: 512, Store: store,
	})
	if err != nil {
		return err
	}
	defer hq.Close()
	mq := NewMemQueue[elem](elemLess, nil)
	same := func() (more bool, err error) {
		hv, hok, herr := hq.Pop()
		mv, mok, _ := mq.Pop()
		if herr != nil || hok != mok || hv != mv {
			return false, fmt.Errorf("hybrid popped %v %v %v, memory %v %v", hv, hok, herr, mv, mok)
		}
		return hok, nil
	}
	for i, d := range keys {
		e := elem{dist: d, id: uint64(i)}
		if err := hq.Insert(e); err != nil {
			return err
		}
		mq.Insert(e)
		if pop(i) {
			if _, err := same(); err != nil {
				return fmt.Errorf("after insert %d: %w", i, err)
			}
		}
	}
	for {
		if more, err := same(); err != nil || !more {
			return err
		}
	}
}

// Property: hybrid and memory queues pop identical sequences for any input,
// under any DT.
func TestPropHybridMatchesMem(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		dt := 0.5 + rnd.Float64()*30
		keys := make([]float64, 50+rnd.Intn(500))
		for i := range keys {
			keys[i] = rnd.Float64() * 100
		}
		// Occasionally interleave pops.
		return matchesMem(dt, keys, func(int) bool { return rnd.Intn(4) == 0 }) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// Boundary keys: distances on a bucket boundary and one ulp either side
	// of it — where ⌊d/DT⌋ and a comparison against k·DT can disagree — and
	// distances whose d/DT no int holds. The bucket is the queue's only
	// classifier, so neither may misplace an element.
	boundaries := func(dt float64) []float64 {
		var keys []float64
		for k := 0; k <= 48; k++ {
			b := float64(k) * dt
			keys = append(keys, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)),
				float64(k)/(1/dt), b+dt/2)
		}
		return keys
	}
	huge := []float64{0.5, 1, 3.5, 1 << 40, 1 << 62, math.Nextafter(1<<62, 0), 1 << 63, 1 << 64,
		5e18, 1e19, 1e300, math.MaxFloat64, math.Inf(1), 7, 1e17, math.Inf(1), 2}
	for _, tc := range []struct {
		name string
		dt   float64
		keys []float64
	}{
		{"DT=0.1", 0.1, boundaries(0.1)},
		{"DT=0.7", 0.7, boundaries(0.7)},
		{"DT=3", 3, boundaries(3)},
		{"DT=1e-3", 1e-3, boundaries(1e-3)},
		{"d/DT>2^62", 1, huge},
		{"d/DT>2^62,DT=1e-9", 1e-9, append(boundaries(1e-9), 5e9, 1e10, 1e12, 1e300, math.Inf(1))},
	} {
		for _, order := range []string{"ascending", "descending", "shuffled"} {
			keys := append([]float64(nil), tc.keys...)
			switch order {
			case "ascending":
				sort.Float64s(keys)
			case "descending":
				sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
			case "shuffled":
				rand.New(rand.NewSource(20)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			for _, every := range []int{0, 3} {
				if err := matchesMem(tc.dt, keys, func(i int) bool { return every > 0 && i%every == 0 }); err != nil {
					t.Errorf("%s, %s, pop every %d: %v", tc.name, order, every, err)
				}
			}
		}
	}
}

func TestHybridDiskPagesFreedAfterLoad(t *testing.T) {
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: 1, PageSize: 256, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 1000; i++ {
		q.Insert(elem{dist: 10 + float64(i%50), id: uint64(i)})
	}
	for {
		if _, ok, err := q.Pop(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if store.NumAllocated() != 0 {
		t.Fatalf("%d disk pages leaked after drain", store.NumAllocated())
	}
}

func TestHybridFileBackedDefault(t *testing.T) {
	// Without an explicit Store, the hybrid queue creates a scratch file —
	// exercise the real file-backed path end to end.
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: 5, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	rnd := rand.New(rand.NewSource(31))
	var want []float64
	for i := 0; i < 2000; i++ {
		d := rnd.Float64() * 200
		want = append(want, d)
		if err := q.Insert(elem{dist: d, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(want)
	got := drain[elem](t, q)
	if len(got) != len(want) {
		t.Fatalf("drained %d", len(got))
	}
	for i := range got {
		if got[i].dist != want[i] {
			t.Fatalf("pop %d = %g, want %g", i, got[i].dist, want[i])
		}
	}
}

func TestHybridCountsQueueIOSeparately(t *testing.T) {
	c := &stats.Counters{}
	m, publish := meterInto(c)
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: 1, PageSize: 256, Store: store, Meter: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 3000; i++ {
		q.Insert(elem{dist: 10 + float64(i%100), id: uint64(i)})
	}
	for {
		if _, ok, err := q.Pop(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	// Spilled pages must be accounted as queue I/O, never node I/O.
	if publish(); c.QueueReads == 0 || c.QueueWrites == 0 {
		t.Fatalf("queue I/O not counted: %+v", c)
	}
	if c.NodeReads != 0 || c.NodeWrites != 0 {
		t.Fatalf("queue I/O leaked into node counters: %+v", c)
	}
}

func TestHybridAdaptiveDegenerateDistances(t *testing.T) {
	// All-zero sampled distances must not wedge the adaptive DT choice.
	store, _ := pager.NewMemStore(256)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		AdaptiveSample: 16, PageSize: 256, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 64; i++ {
		if err := q.Insert(elem{dist: 0, id: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A later burst of positive distances still orders correctly.
	for i := 0; i < 64; i++ {
		q.Insert(elem{dist: float64(64 - i), id: uint64(100 + i)})
	}
	last := -1.0
	n := 0
	for {
		v, ok, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if v.dist < last {
			t.Fatalf("order violated: %g after %g", v.dist, last)
		}
		last = v.dist
		n++
	}
	if n != 128 {
		t.Fatalf("drained %d", n)
	}
}
