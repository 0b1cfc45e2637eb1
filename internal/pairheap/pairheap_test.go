package pairheap

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"distjoin/internal/racecheck"
)

func intHeap() *Heap[int] { return New[int](func(a, b int) bool { return a < b }) }

func TestEmptyHeap(t *testing.T) {
	h := intHeap()
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("fresh heap not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min on an empty heap did not panic")
		}
	}()
	h.Min()
}

func TestPopMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	intHeap().PopMin()
}

func TestInsertPopSorted(t *testing.T) {
	h := intHeap()
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		h.Insert(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d", h.Len())
	}
	for want := 0; want < len(in); want++ {
		if got := h.PopMin(); got != want {
			t.Fatalf("PopMin = %d, want %d", got, want)
		}
	}
	if !h.Empty() {
		t.Fatal("heap not empty after draining")
	}
}

func TestDuplicates(t *testing.T) {
	h := intHeap()
	for i := 0; i < 10; i++ {
		h.Insert(7)
	}
	for i := 0; i < 10; i++ {
		if h.PopMin() != 7 {
			t.Fatal("wrong duplicate value")
		}
	}
}

func TestMinIsSmallest(t *testing.T) {
	h := intHeap()
	h.Insert(5)
	h.Insert(2)
	h.Insert(8)
	if h.Min() != 2 {
		t.Fatalf("Min = %d, want 2", h.Min())
	}
}

func TestDeleteArbitrary(t *testing.T) {
	h := intHeap()
	var nodes []Handle
	for i := 0; i < 10; i++ {
		nodes = append(nodes, h.Insert(i))
	}
	h.Delete(nodes[4])
	h.Delete(nodes[0]) // the root
	h.Delete(nodes[9])
	want := []int{1, 2, 3, 5, 6, 7, 8}
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
	for _, w := range want {
		if got := h.PopMin(); got != w {
			t.Fatalf("PopMin = %d, want %d", got, w)
		}
	}
}

// Property: popping everything yields ascending order, interleaved with
// random deletes.
func TestPropHeapSort(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		type item struct{ key int }
		h := New[*item](func(a, b *item) bool { return a.key < b.key })
		live := make(map[Handle]bool)
		n := 50 + rnd.Intn(200)
		for i := 0; i < n; i++ {
			node := h.Insert(&item{rnd.Intn(1000)})
			live[node] = true
			if rnd.Intn(5) == 0 { // delete a random live node
				for v := range live {
					h.Delete(v)
					delete(live, v)
					break
				}
			}
		}
		var want []int
		for v := range live {
			want = append(want, h.Value(v).key)
		}
		var got []int
		for !h.Empty() {
			got = append(got, h.PopMin().key)
		}
		if len(got) != len(live) {
			return false
		}
		sort.Ints(want)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertPop(b *testing.B) {
	h := intHeap()
	rnd := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(rnd.Int())
		if h.Len() > 1000 {
			h.PopMin()
		}
	}
}

// TestSlabGrowthAndReuse drives a heap across many chunks, with deletes
// through handles and slot reuse in between, against a sorted reference.
func TestSlabGrowthAndReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	h := intHeap()
	live := map[Handle]int{}
	for i := 0; i < 20*chunkSize; i++ {
		v := rnd.Intn(1 << 20)
		live[h.Insert(v)] = v
		if i%3 == 2 {
			for n, v := range live { // delete an arbitrary element
				if h.Value(n) != v {
					t.Fatalf("handle %d holds %d, inserted %d", n, h.Value(n), v)
				}
				h.Delete(n)
				delete(live, n)
				break
			}
		}
	}
	if len(h.chunks) > 20*2/3+2 {
		t.Errorf("%d chunks for %d live elements: freed slots are not reused", len(h.chunks), len(live))
	}
	want := make([]int, 0, len(live))
	for _, v := range live {
		want = append(want, v)
	}
	sort.Ints(want)
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
	for i, w := range want {
		if got := h.PopMin(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
}

// TestAllocInsertPop gates the slab: an insert allocates one chunk per
// chunkSize elements while the heap grows and nothing once slots are being
// reused; a pop allocates nothing.
func TestAllocInsertPop(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	type elem struct {
		key float64
		pad [10]uint64
	}
	h := New(func(a, b elem) bool { return a.key < b.key })
	rnd := rand.New(rand.NewSource(1))
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.Insert(elem{key: rnd.Float64()})
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.01 {
		t.Errorf("Insert allocates %.4f times per element, want <= 0.01", per)
	}
	h.PopMin() // sizes mergePairs' scratch for the widest sibling list
	if got := testing.AllocsPerRun(1000, func() { h.PopMin() }); got != 0 {
		t.Errorf("PopMin allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		h.Insert(elem{key: rnd.Float64()})
		h.PopMin()
	}); got != 0 {
		t.Errorf("Insert into a freed slot + PopMin allocate %v times, want 0", got)
	}
}
