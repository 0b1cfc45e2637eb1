package pager

import (
	"testing"

	"distjoin/internal/racecheck"
)

// TestAllocPoolGetUnpin gates the pool's two steady-state paths at zero
// allocations: a hit, and a miss that evicts (the evicted frame and its
// buffer are reused).
func TestAllocPoolGetUnpin(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	p, _ := newTestPool(t, 8)
	var ids []PageID
	for i := 0; i < 32; i++ {
		f, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Unpin(f)
	}
	scan := func(span int) func() {
		i := 0
		return func() {
			f, err := p.Get(ids[i%span])
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f)
			i++
		}
	}
	hit := scan(4)
	for i := 0; i < 4; i++ {
		hit() // make the span resident
	}
	if n := testing.AllocsPerRun(1000, hit); n != 0 {
		t.Errorf("Get hit + Unpin allocates %v times, want 0", n)
	}
	// A cyclic scan of more pages than frames misses and evicts every time.
	if n := testing.AllocsPerRun(1000, scan(len(ids))); n != 0 {
		t.Errorf("evicting Get miss + Unpin allocates %v times, want 0", n)
	}
}

// TestPoolRecyclesDroppedFrames: a page dropped makes room that the next
// admission takes without a new buffer, and nothing of the old page —
// bytes, dirtiness, decoded form — shows through.
func TestPoolRecyclesDroppedFrames(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f, _ := p.Allocate()
	id := f.ID()
	copy(f.Data(), "old page")
	f.SetDecoded("decoded old page")
	p.Unpin(f)
	if err := p.Drop(id); err != nil {
		t.Fatal(err)
	}
	g, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(g)
	if g != f {
		t.Error("the dropped frame was not reused")
	}
	if g.Decoded() != nil {
		t.Error("decoded form survived the drop")
	}
	for _, b := range g.Data() {
		if b != 0 {
			t.Fatal("recycled frame is not zeroed")
		}
	}
}

// TestFrameDecodedLifetime: the decoded form lives exactly as long as the
// bytes it was made from are resident and unchanged.
func TestFrameDecodedLifetime(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f, _ := p.Allocate()
	id := f.ID()
	f.SetDecoded(1)
	p.Unpin(f)
	get := func() *Frame {
		t.Helper()
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f = get()
	if f.Decoded() != 1 {
		t.Fatal("decoded form lost on a hit")
	}
	f.MarkDirty()
	if f.Decoded() != nil {
		t.Fatal("MarkDirty kept the decoded form")
	}
	f.SetDecoded(2)
	p.Unpin(f)
	// Evict it: two other pages through a two-frame pool.
	for i := 0; i < 2; i++ {
		g, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(g)
	}
	f = get()
	if f.Decoded() != nil {
		t.Fatal("decoded form survived eviction")
	}
	f.SetDecoded(3)
	p.Unpin(f)
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	f = get()
	defer p.Unpin(f)
	if f.Decoded() != nil {
		t.Fatal("decoded form survived Reset")
	}
}
