package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// stableSTRTile is the reference tiling BulkLoad's pages are defined by:
// every slab sorted with sort.SliceStable by rectangle center under <, so
// equal centers (−0 and +0 among them) keep their incoming order. It is
// the tiler BulkLoad ran before its keyed sort, kept here verbatim.
func stableSTRTile(items []Item, capacity, dims, axis int) [][]Item {
	if len(items) <= capacity {
		return [][]Item{items}
	}
	sort.SliceStable(items, func(i, j int) bool {
		return rectCenterAt(items[i].Rect, axis) < rectCenterAt(items[j].Rect, axis)
	})
	nPages := int(math.Ceil(float64(len(items)) / float64(capacity)))
	if axis == dims-1 {
		out := make([][]Item, 0, nPages)
		for start := 0; start < len(items); start += capacity {
			end := min(start+capacity, len(items))
			out = append(out, items[start:end])
		}
		if n := len(out); n >= 2 {
			tail := len(out[n-1])
			if tail < capacity/2 {
				merged := append(append([]Item(nil), out[n-2]...), out[n-1]...)
				half := len(merged) / 2
				out[n-2], out[n-1] = merged[:half], merged[half:]
			}
		}
		return out
	}
	remainingDims := dims - axis
	slabCount := int(math.Ceil(math.Pow(float64(nPages), 1/float64(remainingDims))))
	slabSize := int(math.Ceil(float64(len(items)) / float64(slabCount)))
	var out [][]Item
	for start := 0; start < len(items); start += slabSize {
		end := min(start+slabSize, len(items))
		out = append(out, stableSTRTile(items[start:end], capacity, dims, axis+1)...)
	}
	return out
}

// strPalette is the coordinate set the tiling guards draw from: repeated
// values (ties), both zeros, and finite values whose center sum overflows
// to ±Inf.
var strPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, 2.5, 7, -7, 1e-300, -1e-300,
	1e308, 1.7e308, math.MaxFloat64, -1e308, -1.7e308, -math.MaxFloat64,
}

// strItems builds n items of the given dimensionality whose coordinates
// come from strPalette, or with probability 1/2 from a uniform draw;
// points gives every item Lo == Hi.
func strItems(rnd *rand.Rand, dims, n int, points bool) []Item {
	coord := func() float64 {
		if rnd.Intn(2) == 0 {
			return strPalette[rnd.Intn(len(strPalette))]
		}
		return math.Floor(rnd.Float64()*64) / 4
	}
	items := make([]Item, n)
	for i := range items {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := range lo {
			lo[d] = coord()
			hi[d] = lo[d]
			if !points {
				if c := coord(); c >= lo[d] {
					hi[d] = c
				} else {
					lo[d] = c
				}
			}
		}
		if points {
			hi = lo
		}
		items[i] = Item{Rect: geom.Rect{Lo: lo, Hi: hi}, Obj: ObjID(i)}
	}
	return items
}

// checkSTRMatchesStable asserts that strTile cuts items into the same tiles,
// each with the same object-id order, as the stable reference.
func checkSTRMatchesStable(t *testing.T, items []Item, capacity, dims int) {
	t.Helper()
	got := strTile(append([]Item(nil), items...), capacity, dims, 0)
	want := stableSTRTile(append([]Item(nil), items...), capacity, dims, 0)
	if len(got) != len(want) {
		t.Fatalf("%d items, capacity %d, %d-D: %d tiles, the stable tiler cuts %d", len(items), capacity, dims, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%d items, capacity %d, %d-D: tile %d holds %d items, want %d", len(items), capacity, dims, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].Obj != want[i][j].Obj {
				t.Fatalf("%d items, capacity %d, %d-D: tile %d position %d is object %d, the stable tiler has %d",
					len(items), capacity, dims, i, j, got[i][j].Obj, want[i][j].Obj)
			}
		}
	}
}

// TestBulkLoadMatchesStableSTR pins the STR tiling to the stable sort by
// center: ties keep their incoming order, −0 ties +0, and a center that
// overflows to ±Inf sorts at the end it overflows to. Tiles equal in ids and
// order are what keep page allocation order, page ids and page bytes fixed.
func TestBulkLoadMatchesStableSTR(t *testing.T) {
	rnd := rand.New(rand.NewSource(3301))
	for _, dims := range []int{2, 3} {
		for _, capacity := range []int{2, 4, 9, 45} {
			sizes := []int{1, capacity, capacity + 1, 2*capacity + 1, capacity*capacity + capacity/2 - 1, 500, 3000}
			for _, n := range sizes {
				for _, points := range []bool{true, false} {
					checkSTRMatchesStable(t, strItems(rnd, dims, n, points), capacity, dims)
				}
			}
		}
	}
}

// FuzzBulkLoadMatchesStableSTR: for any items drawn from strPalette and
// any capacity, strTile's tiles are the stable reference's. The input's
// first byte picks the dimensionality, the second the capacity, and each
// following byte one coordinate from the palette.
func FuzzBulkLoadMatchesStableSTR(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 2, 3, 1, 0, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 10, 11, 12, 13, 14, 15, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2, 2, 2})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		dims := 2 + int(in[0]%2)
		capacity := 2 + int(in[1]%12)
		in = in[2:]
		var items []Item
		for len(in) >= 2*dims {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for d := range lo {
				a := strPalette[int(in[d])%len(strPalette)]
				b := strPalette[int(in[dims+d])%len(strPalette)]
				lo[d], hi[d] = min(a, b), max(a, b)
			}
			items = append(items, Item{Rect: geom.Rect{Lo: lo, Hi: hi}, Obj: ObjID(len(items))})
			in = in[2*dims:]
		}
		if len(items) == 0 {
			return
		}
		checkSTRMatchesStable(t, items, capacity, dims)
	})
}

// pageDigest is the SHA-256 of every page of tr's store after Flush, in
// page-id order, a freed page as its id alone.
func pageDigest(t *testing.T, tr *Tree) string {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	store := tr.pool.Store()
	h := sha256.New()
	buf := make([]byte, store.PageSize())
	var id [8]byte
	for p := pager.PageID(1); ; p++ {
		err := store.ReadPage(p, buf)
		if errors.Is(err, pager.ErrPageOutOfRange) {
			break
		}
		binary.LittleEndian.PutUint64(id[:], uint64(p))
		h.Write(id[:])
		if errors.Is(err, pager.ErrPageFreed) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pointItems returns a builder of randomPoints(seed, n) as items, object i
// at position i.
func pointItems(seed int64, n int) func() []Item {
	return func() []Item {
		pts := randomPoints(seed, n)
		items := make([]Item, len(pts))
		for i, p := range pts {
			items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
		}
		return items
	}
}

// TestBulkLoadPageDigest holds a few seeded bulk-loaded trees to the page
// bytes BulkLoad wrote when it tiled with sort.SliceStable: the tiling, the
// page allocation order, the page ids and every byte of every page.
func TestBulkLoadPageDigest(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		items  func() []Item
		digest string
	}{
		{"2d-points-page256", smallConfig(), pointItems(23, 10000), "9435bea98e2cf3c5dcddbd4074d0b009b201ecdd3960fd5a5ce93cb6c52cf93b"},
		{"2d-points-default", Config{Dims: 2}, pointItems(3311, 20000), "eebb77c80873c771004d8508e2c107c0baca58e60fce4073beae93669d9a95f4"},
		{"2d-rects-ties", Config{Dims: 2, PageSize: 512}, func() []Item {
			return strItems(rand.New(rand.NewSource(3312)), 2, 5000, false)
		}, "1fbddd2ddaab1207de83a86c33119f112e8b5bad84dccba820e4798d2a92d79a"},
		{"3d-points-ties", Config{Dims: 3, PageSize: 1024}, func() []Item {
			return strItems(rand.New(rand.NewSource(3313)), 3, 8000, true)
		}, "58701c5b044011caab98bbcc126c515873835c57251cc75e6efcbc779b87db86"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := BulkLoad(c.cfg, c.items())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := pageDigest(t, tr); got != c.digest {
				t.Errorf("page digest %s, want %s", got, c.digest)
			}
		})
	}
}
