package rtree

import (
	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// Delete removes the object with the given bounding rectangle and id.
// It returns false when no matching entry exists.
func (t *Tree) Delete(r geom.Rect, id ObjID) (bool, error) {
	if err := t.checkRect(r); err != nil {
		return false, err
	}
	path, leafIdx, found, err := t.findLeaf(t.root, nil, r, id)
	if err != nil || !found {
		return false, err
	}
	leaf := path[len(path)-1].node
	leaf.Entries = append(leaf.Entries[:leafIdx], leaf.Entries[leafIdx+1:]...)
	t.size--

	// Condense: remove underflowing nodes bottom-up, collecting orphaned
	// entries (with the level they belong at) for reinsertion.
	type orphan struct {
		e     Entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i > 0; i-- {
		cur := path[i].node
		parent := path[i-1].node
		idx := path[i].parentIdx
		if len(cur.Entries) < t.minEntries {
			for _, e := range cur.Entries {
				orphans = append(orphans, orphan{e: e, level: cur.Level})
			}
			parent.Entries = append(parent.Entries[:idx], parent.Entries[idx+1:]...)
			if err := t.freeNode(cur.Page); err != nil {
				return false, err
			}
			// Fix sibling parentIdx references on the remaining path: only
			// the ancestor chain matters, and its indices are unaffected
			// unless idx < path[i-1..] — the chain stores the index taken
			// while descending, which is in parent, so adjust if needed.
			continue
		}
		if err := t.writeNode(cur); err != nil {
			return false, err
		}
		parent.Entries[idx].Rect = groupMBR(cur.Entries)
	}
	root := path[0].node
	if err := t.writeNode(root); err != nil {
		return false, err
	}

	// Reinsert orphaned entries at their original levels.
	for _, o := range orphans {
		if err := t.insertEntry(o.e, o.level, make(map[int]bool)); err != nil {
			return false, err
		}
	}

	// Shrink the root while it is a non-leaf with a single child.
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return false, err
		}
		if root.Level == 0 || len(root.Refs) != 1 {
			break
		}
		child := pager.PageID(root.Refs[0])
		if err := t.freeNode(t.root); err != nil {
			return false, err
		}
		t.root = child
		t.height--
	}
	return true, nil
}

// deletePath is one step of the root-to-leaf path used by Delete.
type deletePath struct {
	node      *Node
	parentIdx int // index of this node within its parent (unused for root)
}

// findLeaf locates the leaf containing (r, id) by depth-first search over
// entries whose rectangles contain r. It returns the path from the root to
// the leaf and the index of the matching entry.
func (t *Tree) findLeaf(page pager.PageID, path []deletePath, r geom.Rect, id ObjID) ([]deletePath, int, bool, error) {
	n, err := t.ReadNode(page)
	if err != nil {
		return nil, 0, false, err
	}
	self := deletePath{node: n}
	if len(path) > 0 {
		self.parentIdx = -1 // filled by caller below
	}
	path = append(path, self)
	if n.Level == 0 {
		for i, e := range n.Entries {
			if e.Obj == id && e.Rect.Equal(r) {
				return path, i, true, nil
			}
		}
		return path, 0, false, nil
	}
	for i, e := range n.Entries {
		if !e.Rect.Contains(r) {
			continue
		}
		sub, idx, found, err := t.findLeaf(e.Child, path, r, id)
		if err != nil {
			return nil, 0, false, err
		}
		if found {
			sub[len(path)].parentIdx = i
			return sub, idx, true, nil
		}
	}
	return path[:len(path)-1], 0, false, nil
}
