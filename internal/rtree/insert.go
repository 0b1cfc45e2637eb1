package rtree

import (
	"fmt"
	"sort"

	"distjoin/internal/geom"
)

// Insert adds an object with the given bounding rectangle to the tree.
func (t *Tree) Insert(r geom.Rect, id ObjID) error {
	if err := t.checkStored(r); err != nil {
		return err
	}
	e := Entry{Rect: r.Clone(), Obj: id}
	if err := t.insertEntry(e, 0, make(map[int]bool)); err != nil {
		return err
	}
	t.size++
	return nil
}

// InsertPoint adds a point object (a degenerate rectangle).
func (t *Tree) InsertPoint(p geom.Point, id ObjID) error {
	return t.Insert(p.Rect(), id)
}

// pathStep records one hop of the root-to-target descent.
type pathStep struct {
	node     *Node
	childIdx int // index in node.Entries taken to descend
}

// insertEntry places e at the given level (0 for objects), handling overflow
// with R* forced reinsertion and splits. reinsertDone tracks which levels
// already reinserted during this logical insertion, so each level reinserts
// at most once (the R* OverflowTreatment rule).
func (t *Tree) insertEntry(e Entry, level int, reinsertDone map[int]bool) error {
	// Descend from the root to the target level, remembering the path.
	var path []pathStep
	n, err := t.ReadNode(t.root)
	if err != nil {
		return err
	}
	for n.Level > level {
		i := t.chooseSubtree(n, e.Rect)
		path = append(path, pathStep{node: n, childIdx: i})
		n, err = t.ReadNode(n.Entries[i].Child)
		if err != nil {
			return err
		}
	}
	if n.Level != level {
		return fmt.Errorf("rtree: no node at level %d (tree height %d)", level, t.height)
	}
	n.Entries = append(n.Entries, e)

	// Resolve overflows bottom-up.
	cur := n
	for {
		if len(cur.Entries) <= t.maxEntries {
			if err := t.writeNode(cur); err != nil {
				return err
			}
			return t.adjustPath(path, cur)
		}
		if cur.Page != t.root && !reinsertDone[cur.Level] {
			reinsertDone[cur.Level] = true
			return t.forcedReinsert(cur, path, reinsertDone)
		}
		// Split. left reuses cur's page; right gets a new one.
		left, right, err := t.split(cur)
		if err != nil {
			return err
		}
		if cur.Page == t.root {
			newRoot := &Node{Level: cur.Level + 1, Entries: []Entry{entryForChild(left), entryForChild(right)}}
			if err := t.allocNode(newRoot); err != nil {
				return err
			}
			t.root = newRoot.Page
			t.height++
			return nil
		}
		parent := path[len(path)-1].node
		idx := path[len(path)-1].childIdx
		parent.Entries[idx] = entryForChild(left)
		parent.Entries = append(parent.Entries, entryForChild(right))
		path = path[:len(path)-1]
		cur = parent
	}
}

// adjustPath recomputes bounding rectangles along the descent path after the
// subtree rooted at child changed, writing each updated ancestor.
func (t *Tree) adjustPath(path []pathStep, child *Node) error {
	mbr := geom.Rect{}
	if len(child.Entries) > 0 {
		mbr = groupMBR(child.Entries)
	}
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		if len(child.Entries) > 0 {
			step.node.Entries[step.childIdx].Rect = mbr
		}
		if err := t.writeNode(step.node); err != nil {
			return err
		}
		child = step.node
		mbr = groupMBR(child.Entries)
	}
	return nil
}

// chooseSubtree implements the R* descent criterion: when the children are
// leaves, pick the entry whose rectangle needs the least overlap enlargement
// (ties: least area enlargement, then least area); otherwise pick least area
// enlargement (ties: least area).
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	if n.Level == 1 { // children are leaf nodes
		best := 0
		bestOverlap := t.overlapEnlargement(n.Entries, 0, r)
		bestEnl := n.Entries[0].Rect.Enlargement(r)
		bestArea := n.Entries[0].Rect.Area()
		for i := 1; i < len(n.Entries); i++ {
			ov := t.overlapEnlargement(n.Entries, i, r)
			enl := n.Entries[i].Rect.Enlargement(r)
			area := n.Entries[i].Rect.Area()
			if ov < bestOverlap ||
				(ov == bestOverlap && enl < bestEnl) ||
				(ov == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
			}
		}
		return best
	}
	best := 0
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overlapEnlargement computes how much the overlap between entry i and its
// siblings grows when entry i is enlarged to include r.
func (t *Tree) overlapEnlargement(entries []Entry, i int, r geom.Rect) float64 {
	grown := entries[i].Rect.Union(r)
	var before, after float64
	for j := range entries {
		if j == i {
			continue
		}
		before += entries[i].Rect.OverlapArea(entries[j].Rect)
		after += grown.OverlapArea(entries[j].Rect)
	}
	return after - before
}

// forcedReinsert removes the ReinsertFraction of entries farthest from the
// node's MBR center, restores tree consistency, and re-inserts them
// (closest first — the R* "close reinsert").
func (t *Tree) forcedReinsert(n *Node, path []pathStep, reinsertDone map[int]bool) error {
	center := groupMBR(n.Entries).Center()
	type ranked struct {
		e Entry
		d float64
	}
	rankedEntries := make([]ranked, len(n.Entries))
	for i, e := range n.Entries {
		rankedEntries[i] = ranked{e: e, d: geom.Euclidean.Dist(center, e.Rect.Center())}
	}
	sort.Slice(rankedEntries, func(i, j int) bool { return rankedEntries[i].d < rankedEntries[j].d })
	p := int(t.cfg.ReinsertFraction * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	keep := rankedEntries[:len(rankedEntries)-p]
	removed := rankedEntries[len(rankedEntries)-p:]

	n.Entries = n.Entries[:0]
	for _, r := range keep {
		n.Entries = append(n.Entries, r.e)
	}
	if err := t.writeNode(n); err != nil {
		return err
	}
	// Bring ancestors up to date before re-entering insertion from the root.
	if err := t.adjustPath(path, n); err != nil {
		return err
	}
	// Close reinsert: nearest-to-center first.
	for _, r := range removed {
		if err := t.insertEntry(r.e, n.Level, reinsertDone); err != nil {
			return err
		}
	}
	return nil
}

// split performs the R* topological split of an overflowing node. The left
// group reuses n's page; the right group is written to a fresh page.
func (t *Tree) split(n *Node) (left, right *Node, err error) {
	leftEntries, rightEntries := t.chooseSplit(n.Entries)
	left = &Node{Page: n.Page, Level: n.Level, Entries: leftEntries}
	right = &Node{Level: n.Level, Entries: rightEntries}
	if err := t.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := t.allocNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// chooseSplit partitions M+1 entries into two groups following the R* split
// algorithm: choose the split axis minimizing the sum of margins over all
// candidate distributions, then the distribution on that axis with minimum
// overlap (ties: minimum total area).
func (t *Tree) chooseSplit(entries []Entry) ([]Entry, []Entry) {
	m := t.minEntries
	M := len(entries) - 1 // entries holds M+1 items
	dims := t.cfg.Dims

	bestAxis, bestAxisMargin := -1, 0.0
	for axis := 0; axis < dims; axis++ {
		marginSum := 0.0
		for _, byUpper := range []bool{false, true} {
			sorted := sortedByAxis(entries, axis, byUpper)
			for k := m; k <= M+1-m; k++ {
				marginSum += groupMBR(sorted[:k]).Margin() + groupMBR(sorted[k:]).Margin()
			}
		}
		if bestAxis == -1 || marginSum < bestAxisMargin {
			bestAxis, bestAxisMargin = axis, marginSum
		}
	}

	var bestLeft, bestRight []Entry
	bestOverlap, bestArea := 0.0, 0.0
	first := true
	for _, byUpper := range []bool{false, true} {
		sorted := sortedByAxis(entries, bestAxis, byUpper)
		for k := m; k <= M+1-m; k++ {
			lr, rr := groupMBR(sorted[:k]), groupMBR(sorted[k:])
			overlap := lr.OverlapArea(rr)
			area := lr.Area() + rr.Area()
			if first || overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				first = false
				bestOverlap, bestArea = overlap, area
				bestLeft = append([]Entry(nil), sorted[:k]...)
				bestRight = append([]Entry(nil), sorted[k:]...)
			}
		}
	}
	return bestLeft, bestRight
}

// sortedByAxis returns a copy of entries sorted by the lower (or upper)
// rectangle boundary along the given axis, with the other boundary as a
// tiebreaker for determinism.
func sortedByAxis(entries []Entry, axis int, byUpper bool) []Entry {
	s := append([]Entry(nil), entries...)
	sort.SliceStable(s, func(i, j int) bool {
		if byUpper {
			if s[i].Rect.Hi[axis] != s[j].Rect.Hi[axis] {
				return s[i].Rect.Hi[axis] < s[j].Rect.Hi[axis]
			}
			return s[i].Rect.Lo[axis] < s[j].Rect.Lo[axis]
		}
		if s[i].Rect.Lo[axis] != s[j].Rect.Lo[axis] {
			return s[i].Rect.Lo[axis] < s[j].Rect.Lo[axis]
		}
		return s[i].Rect.Hi[axis] < s[j].Rect.Hi[axis]
	})
	return s
}

// groupMBR returns the bounding rectangle of a group of entries.
func groupMBR(entries []Entry) geom.Rect {
	r := entries[0].Rect.Clone()
	for _, e := range entries[1:] {
		r.UnionInPlace(e.Rect)
	}
	return r
}

// entryForChild builds the parent entry describing child.
func entryForChild(child *Node) Entry {
	return Entry{Rect: groupMBR(child.Entries), Child: child.Page}
}
