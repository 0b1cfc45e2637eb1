package rtree

import (
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// Search invokes fn for every leaf entry whose rectangle intersects query.
// Traversal stops early when fn returns false.
func (t *Tree) Search(query geom.Rect, fn func(Entry) bool) error {
	if err := t.checkRect(query); err != nil {
		return err
	}
	_, err := t.searchPage(t.root, query, fn)
	return err
}

func (t *Tree) searchPage(page pager.PageID, query geom.Rect, fn func(Entry) bool) (bool, error) {
	n, err := t.readNode(page)
	if err != nil {
		return false, err
	}
	for i := range n.Refs {
		e := n.entry(i)
		if !e.Rect.Intersects(query) {
			continue
		}
		if n.Level == 0 {
			if !fn(e) {
				return false, nil
			}
			continue
		}
		cont, err := t.searchPage(e.Child, query, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Scan invokes fn for every leaf entry in the tree, in storage order: a
// Search over the whole space. Traversal stops early when fn returns false.
func (t *Tree) Scan(fn func(Entry) bool) error {
	lo, hi := make(geom.Point, t.cfg.Dims), make(geom.Point, t.cfg.Dims)
	for i := range lo {
		lo[i], hi[i] = math.Inf(-1), math.Inf(1)
	}
	return t.Search(geom.Rect{Lo: lo, Hi: hi}, fn)
}

// CountNodes returns the number of nodes on each level, leaf level first.
// It is a diagnostic helper and reads every node.
func (t *Tree) CountNodes() ([]int, error) {
	counts := make([]int, t.height)
	if err := t.countPage(t.root, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

func (t *Tree) countPage(page pager.PageID, counts []int) error {
	n, err := t.readNode(page)
	if err != nil {
		return err
	}
	counts[n.Level]++
	if n.Level == 0 {
		return nil
	}
	for _, ref := range n.Refs {
		if err := t.countPage(pager.PageID(ref), counts); err != nil {
			return err
		}
	}
	return nil
}
