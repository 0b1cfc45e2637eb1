package distjoin

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"distjoin/internal/pager"
	"distjoin/internal/pqueue"
)

// newSpillQueue builds a hybrid block queue of D_T 1 over an in-memory store
// of pageSize-byte pages, for rectangles of the given dimensionality.
func newSpillQueue(t testing.TB, dims, pageSize int) (*blockQueue, *pager.MemStore) {
	t.Helper()
	store, err := pager.NewMemStore(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	q := newBlockQueue(true, false, nil)
	w := 2 * dims
	disk, err := pqueue.NewTier(pqueue.HybridConfig{DT: 1, PageSize: pageSize, Store: store}, recordHeader(w), recordItem(w, false), q.load)
	if err != nil {
		t.Fatal(err)
	}
	q.disk, q.w = disk, w
	t.Cleanup(func() { q.Close() })
	return q, store
}

// samePair reports whether two pairs agree in key, kinds, levels, refs and
// coordinates.
func samePair(a, b qpair) bool {
	same := func(x, y item) bool {
		return x.kind == y.kind && x.level == y.level && x.ref == y.ref && slices.Equal(x.c, y.c)
	}
	return a.key == b.key && same(a.i1, b.i1) && same(a.i2, b.i2)
}

// spillRoundTrip writes expansions and single pairs chosen by pick(n), a
// value in [0, n), through a hybrid queue of 512-byte pages whose children
// fall into the 40 buckets past the last pair popped, so that most go to the
// disk tier as records, some spanning pages. With flip < 0 pops are
// interleaved, so records are routed at every new list bucket the queue
// reaches; every pair that went in must come out, in pairLess order, with
// its key, kinds, levels, refs and coordinates. With flip ≥ 0 there are no
// pops until the end: then one byte of a sealed page, chosen by flip, is
// flipped, and the drain must end in ErrPageChecksum; it returns how many
// pages were sealed.
func spillRoundTrip(t *testing.T, dims, ops, flip int, pick func(n int) int) int {
	t.Helper()
	const pageSize = 512
	q, store := newSpillQueue(t, dims, pageSize)
	w := 2 * dims
	less := pairLess(true, false)
	var ref []qpair
	floor := 0.0
	key := func() float64 { return floor + float64(pick(40)) + float64(pick(8))/8 }
	coords := func(n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = float64(pick(1000)) / 4
		}
		return c
	}
	anItem := func(ref uint64) item {
		kind, level := itemKind(pick(3)), int8(-1)
		if kind == kindNode {
			level = int8(pick(3))
		}
		return item{c: coords(w), ref: ref, kind: kind, level: level}
	}
	drainFrom := func(step int) error {
		for len(ref) > 0 {
			m := 0
			for i := range ref {
				if less(ref[i], ref[m]) {
					m = i
				}
			}
			got, ok, err := q.Pop()
			if err != nil {
				return err
			}
			if !ok || !samePair(got, ref[m]) {
				t.Fatalf("step %d: popped %+v (ok %v), want %+v", step, got, ok, ref[m])
			}
			floor = got.key
			ref[m] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if step < ops {
				return nil
			}
		}
		return nil
	}
	for step := 0; step < ops; step++ {
		op := pick(3)
		if flip >= 0 {
			op = pick(2)
		}
		switch op {
		case 0:
			leaf, side, n := pick(2) == 0, 1+pick(2), 1+pick(40)
			node := &IndexNode{Leaf: leaf, Level: 3, Coords: coords(w * n)}
			for i := range n {
				node.Refs = append(node.Refs, uint64(step*100+i))
				if !leaf {
					node.Levels = append(node.Levels, int8(pick(3)))
				}
			}
			q.begin(anItem(uint64(1_000_000+step)), node, side, itemKind(1+pick(2)))
			for i := range n {
				if pick(4) == 0 {
					continue
				}
				k := key()
				q.collect(k, i)
				ref = append(ref, q.cur.pair(k, i))
			}
			if err := q.end(); err != nil {
				t.Fatal(err)
			}
		case 1:
			p := qpair{key: key(), i1: anItem(uint64(2_000_000 + step)), i2: anItem(uint64(3_000_000 + step))}
			if err := q.Insert(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		case 2:
			if err := drainFrom(step); err != nil {
				t.Fatal(err)
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d with %d pairs queued", step, q.Len(), len(ref))
		}
	}
	if flip < 0 {
		if err := drainFrom(ops); err != nil {
			t.Fatal(err)
		}
		if err := q.disk.CheckStore(); err != nil {
			t.Fatal(err)
		}
		if store.NumAllocated() != 0 {
			t.Fatalf("%d pages still allocated after the drain", store.NumAllocated())
		}
		assertStoreReturned(t, q)
		return 0
	}
	pages := store.NumAllocated()
	if pages == 0 {
		return 0
	}
	buf := make([]byte, pageSize)
	id := pager.PageID(1 + flip/pageSize%pages)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	buf[flip%pageSize] ^= 0x40
	if err := store.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := drainFrom(ops); !errors.Is(err, pqueue.ErrPageChecksum) {
		t.Fatalf("page %d byte %d flipped: the drain ended with %v, want ErrPageChecksum", id, flip%pageSize, err)
	}
	return pages
}

// FuzzSpillRecord is spillRoundTrip with the fuzzer choosing the
// dimensionality, the operations and the byte to flip. Scripts are cut to
// 256 bytes: the reference drain is quadratic, and a longer script made one
// minimisation take the whole fuzzing run.
func FuzzSpillRecord(f *testing.F) {
	f.Add(byte(1), uint16(0), []byte{})
	f.Add(byte(1), uint16(700), []byte{0, 1, 0, 39, 3, 1, 2, 5, 7, 0, 3, 3, 2, 1, 1, 9, 2, 0, 1, 1})
	f.Add(byte(2), uint16(1999), []byte{0, 0, 1, 30, 2, 1, 1, 1, 0, 1, 0, 25, 1, 2, 2, 1, 1, 4, 0, 0, 1, 35})
	f.Fuzz(func(t *testing.T, dims byte, flip uint16, script []byte) {
		script = script[:min(len(script), 256)]
		picker := func() func(int) int {
			s := script
			return func(n int) int {
				if len(s) == 0 {
					return 0
				}
				b := s[0]
				s = s[1:]
				return int(b) % n
			}
		}
		d := 1 + int(dims)%4
		spillRoundTrip(t, d, len(script), -1, picker())
		spillRoundTrip(t, d, len(script), int(flip), picker())
	})
}

// TestPropSpillRecordRoundTrip runs spillRoundTrip on random scripts in one
// to four dimensions, clean and with a flipped byte.
func TestPropSpillRecordRoundTrip(t *testing.T) {
	runs, sealed := 0, 0
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		dims, ops := 1+rnd.Intn(4), 20+rnd.Intn(80)
		spillRoundTrip(t, dims, ops, -1, rnd.Intn)
		if spillRoundTrip(t, dims, ops, rnd.Intn(1<<16), rnd.Intn) > 0 {
			sealed++
		}
		runs++
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if sealed < runs/2 {
		t.Errorf("only %d of %d scripts sealed a page", sealed, runs)
	}
}
