package rtree

import (
	"math"
	"sort"

	"distjoin/internal/geom"
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

	// Build the leaf level.
	work := append([]Item(nil), items...)
	tiles := strTile(work, capacity, t.cfg.Dims, 0)
	level := 0
	var nodes []*Node
	for _, tile := range tiles {
		n := &Node{Level: 0, Entries: make([]Entry, len(tile))}
		for i, it := range tile {
			n.Entries[i] = Entry{Rect: it.Rect.Clone(), Obj: it.Obj}
		}
		if err := t.allocNode(n); err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}

	// Pack upper levels until a single node remains.
	for len(nodes) > 1 {
		level++
		parentItems := make([]Item, len(nodes))
		byPage := make(map[ObjID]*Node, len(nodes))
		for i, n := range nodes {
			parentItems[i] = Item{Rect: groupMBR(n.Entries), Obj: ObjID(n.Page)}
			byPage[ObjID(n.Page)] = n
		}
		tiles := strTile(parentItems, capacity, t.cfg.Dims, 0)
		var parents []*Node
		for _, tile := range tiles {
			p := &Node{Level: level, Entries: make([]Entry, len(tile))}
			for i, it := range tile {
				p.Entries[i] = entryForChild(byPage[it.Obj])
			}
			if err := t.allocNode(p); err != nil {
				return nil, err
			}
			parents = append(parents, p)
		}
		nodes = parents
	}

	// Replace the empty root created by New with the built root.
	if err := t.freeNode(t.root); err != nil {
		return nil, err
	}
	t.root = nodes[0].Page
	t.height = level + 1
	t.size = len(items)
	return t, nil
}

// strTile recursively partitions items into groups of at most capacity,
// sorting by rectangle center along successive dimensions (the STR tiling).
func strTile(items []Item, capacity, dims, axis int) [][]Item {
	if len(items) <= capacity {
		return [][]Item{items}
	}
	sort.SliceStable(items, func(i, j int) bool {
		return rectCenterAt(items[i].Rect, axis) < rectCenterAt(items[j].Rect, axis)
	})
	nPages := int(math.Ceil(float64(len(items)) / float64(capacity)))
	if axis == dims-1 {
		// Final axis: cut into runs of `capacity`. The last run may come out
		// shorter than the tree's minimum fill, which would invalidate the
		// minimum-fan-out bound the K-pair estimation of §2.2.4 relies on,
		// so a short tail is balanced against its predecessor.
		out := make([][]Item, 0, nPages)
		for start := 0; start < len(items); start += capacity {
			end := start + capacity
			if end > len(items) {
				end = len(items)
			}
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
	// Slabs along this axis, each tiled recursively along the next.
	remainingDims := dims - axis
	slabCount := int(math.Ceil(math.Pow(float64(nPages), 1/float64(remainingDims))))
	slabSize := int(math.Ceil(float64(len(items)) / float64(slabCount)))
	var out [][]Item
	for start := 0; start < len(items); start += slabSize {
		end := start + slabSize
		if end > len(items) {
			end = len(items)
		}
		out = append(out, strTile(items[start:end], capacity, dims, axis+1)...)
	}
	return out
}

func rectCenterAt(r geom.Rect, axis int) float64 {
	return (r.Lo[axis] + r.Hi[axis]) / 2
}
