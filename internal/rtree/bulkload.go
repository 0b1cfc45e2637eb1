package rtree

import (
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// Item is one object for bulk loading.
type Item struct {
	Rect geom.Rect
	Obj  ObjID
}

// BulkLoadFill is the node fill factor used by BulkLoad. Packing nodes
// completely full makes the first insertion into every node split it, so STR
// implementations conventionally leave headroom.
const BulkLoadFill = 0.9

// BulkLoad builds a tree from items using Sort-Tile-Recursive (STR) packing
// (Leutenegger, López & Edgington). STR produces well-clustered leaves in a
// single pass, which is how the experiment harness builds its large trees;
// insertion-built and bulk-loaded trees are both exercised in tests.
func BulkLoad(cfg Config, items []Item) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	for _, it := range items {
		if err := t.checkStored(it.Rect); err != nil {
			return nil, err
		}
	}

	capacity := int(BulkLoadFill * float64(t.maxEntries))
	if capacity < 2 {
		capacity = 2
	}

	// Tile one level at a time, leaves first, until a single node remains.
	// Every page is encoded from the one entry-form node n, which is reused,
	// so its entries may alias the tiles' rectangles: nothing keeps them. The
	// level above is one item per node, its MBR and its page.
	n := &Node{Entries: make([]Entry, 0, capacity)}
	work := append([]Item(nil), items...)
	level := 0
	for {
		tiles := strTile(work, capacity, t.cfg.Dims, 0)
		up := make([]Item, len(tiles))
		for i, tile := range tiles {
			n.Level, n.Entries = level, n.Entries[:0]
			for _, it := range tile {
				e := Entry{Rect: it.Rect, Obj: it.Obj}
				if level > 0 {
					e = Entry{Rect: it.Rect, Child: pager.PageID(it.Obj)}
				}
				n.Entries = append(n.Entries, e)
			}
			if err := t.allocNode(n); err != nil {
				return nil, err
			}
			up[i] = Item{Rect: groupMBR(n.Entries), Obj: ObjID(n.Page)}
		}
		if len(up) == 1 {
			break
		}
		work = up
		level++
	}

	// Replace the empty root created by New with the built root.
	if err := t.freeNode(t.root); err != nil {
		return nil, err
	}
	t.root = n.Page
	t.height = level + 1
	t.size = len(items)
	return t, nil
}

// strTile recursively partitions items into groups of at most capacity,
// sorting by rectangle center along successive dimensions (the STR tiling).
// It reorders items in place; the groups are views of it.
func strTile(items []Item, capacity, dims, axis int) [][]Item {
	if len(items) <= capacity {
		return [][]Item{items}
	}
	sortByCenter(items, axis)
	nPages := int(math.Ceil(float64(len(items)) / float64(capacity)))
	if axis == dims-1 {
		// Final axis: cut into runs of `capacity`. The last run may come out
		// shorter than the tree's minimum fill, which would invalidate the
		// minimum-fan-out bound the K-pair estimation of §2.2.4 relies on,
		// so a short tail is balanced against its predecessor.
		out := make([][]Item, 0, nPages)
		for start := 0; start < len(items); start += capacity {
			out = append(out, items[start:min(start+capacity, len(items))])
		}
		if tail := len(out[nPages-1]); tail < capacity/2 {
			pair := items[len(items)-capacity-tail:]
			out[nPages-2], out[nPages-1] = pair[:len(pair)/2], pair[len(pair)/2:]
		}
		return out
	}
	// Slabs along this axis, each tiled recursively along the next.
	remainingDims := dims - axis
	slabCount := int(math.Ceil(math.Pow(float64(nPages), 1/float64(remainingDims))))
	slabSize := int(math.Ceil(float64(len(items)) / float64(slabCount)))
	var out [][]Item
	for start := 0; start < len(items); start += slabSize {
		out = append(out, strTile(items[start:min(start+slabSize, len(items))], capacity, dims, axis+1)...)
	}
	return out
}

// centerKey is an item's center on the sort axis as orderedBits, and the
// item's index before the sort.
type centerKey struct {
	bits uint64
	at   int
}

// sortByCenter orders items by rectangle center along axis in the order
// a stable sort under < gives: ties keep their incoming order. Each
// center is computed once into a pointer-free key, the keys are radix-sorted
// a byte at a time from the least significant (stable by construction), and
// each item is moved once, following the permutation's cycles.
func sortByCenter(items []Item, axis int) {
	n := len(items)
	keys, spare := make([]centerKey, n), make([]centerKey, n)
	var counts [8][256]int
	for i := range items {
		b := orderedBits(rectCenterAt(items[i].Rect, axis))
		keys[i] = centerKey{b, i}
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0].bits>>(8*d))] == n {
			continue // every key has this byte: the pass would move nothing
		}
		sum := 0
		for v, k := range c {
			c[v], sum = sum, sum+k
		}
		for _, k := range keys {
			v := byte(k.bits >> (8 * d))
			spare[c[v]] = k
			c[v]++
		}
		keys, spare = spare, keys
	}
	// Move each item once, a cycle of the permutation at a time: position
	// j takes the item keys[j].at held, and a placed position gets at == j.
	for i := range keys {
		held, j := items[i], i
		for from := keys[j].at; from != i; from = keys[j].at {
			items[j], keys[j].at, j = items[from], j, from
		}
		items[j], keys[j].at = held, j
	}
}

// orderedBits maps a center to bits whose unsigned order is the center's
// order under <. −0 is folded into +0 first, so the two tie as they do
// under <. A center is never NaN: coordinates are finite, and their sum
// overflows to ±Inf at worst, which maps like any other value.
func orderedBits(c float64) uint64 {
	if c == 0 {
		c = 0
	}
	b := math.Float64bits(c)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func rectCenterAt(r geom.Rect, axis int) float64 {
	return (r.Lo[axis] + r.Hi[axis]) / 2
}
