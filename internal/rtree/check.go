package rtree

import (
	"fmt"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// CheckInvariants verifies the structural invariants of the tree and returns
// a descriptive error on the first violation. It is exported for use by
// tests and by the experiment harness as a sanity gate:
//
//   - every node's entry rectangle equals the MBR of the referenced child,
//   - all leaves are at level 0 and levels decrease by one per hop,
//   - every non-root node holds between MinEntries and MaxEntries entries,
//   - the recorded height and object count match the structure.
func (t *Tree) CheckInvariants() error {
	objs, _, err := t.checkNode(t.root, t.height-1, true)
	if err != nil {
		return err
	}
	if objs != t.size {
		return fmt.Errorf("rtree: size %d but %d objects reachable", t.size, objs)
	}
	return nil
}

// checkNode checks the subtree on page, reading each of its nodes once, and
// returns its object count and the node's MBR for the parent's entry.
func (t *Tree) checkNode(page pager.PageID, wantLevel int, isRoot bool) (int, geom.Rect, error) {
	n, err := t.readNode(page)
	if err != nil {
		return 0, geom.Rect{}, err
	}
	count := len(n.Refs)
	if n.Level != wantLevel {
		return 0, geom.Rect{}, fmt.Errorf("rtree: page %d at level %d, want %d", page, n.Level, wantLevel)
	}
	if count > t.maxEntries {
		return 0, geom.Rect{}, fmt.Errorf("rtree: page %d overflows: %d > %d", page, count, t.maxEntries)
	}
	if !isRoot && count < t.minEntries {
		return 0, geom.Rect{}, fmt.Errorf("rtree: page %d underflows: %d < %d", page, count, t.minEntries)
	}
	if isRoot && n.Level > 0 && count < 2 {
		return 0, geom.Rect{}, fmt.Errorf("rtree: non-leaf root has %d entries", count)
	}
	for i := 0; i < count; i++ {
		if r := n.Rect(i); !r.Valid() {
			return 0, geom.Rect{}, fmt.Errorf("rtree: page %d entry %d has invalid rect %v", page, i, r)
		}
	}
	if n.Level == 0 {
		return count, n.MBR(), nil
	}
	total := 0
	for i, ref := range n.Refs {
		objs, mbr, err := t.checkNode(pager.PageID(ref), wantLevel-1, false)
		if err != nil {
			return 0, geom.Rect{}, err
		}
		if r := n.Rect(i); !mbr.Equal(r) {
			return 0, geom.Rect{}, fmt.Errorf("rtree: page %d entry %d rect %v != child MBR %v", page, i, r, mbr)
		}
		total += objs
	}
	return total, n.MBR(), nil
}
