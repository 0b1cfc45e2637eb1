// Package distjoin implements the paper's primary contribution: incremental
// algorithms for the distance join and distance semi-join of two R-tree
// indexed spatial relations (Hjaltason & Samet, SIGMOD 1998, §2).
//
// The central structure is a priority queue of pairs, each pair combining an
// item (index node, leaf bounding rectangle, or exact object) from each
// input, keyed by the distance between the items. Popping the minimum pair
// either reports an object pair — guaranteed to be the next closest by the
// consistency of the distance functions — or expands a node into child
// pairs. All of the paper's evaluated variants are implemented: traversal
// policies (Basic / Even / Simultaneous with plane sweep), tie-breaking
// (depth-first / breadth-first), distance ranges with MINMAXDIST pruning,
// maximum-distance estimation from a result-count bound, the semi-join
// filtering ladder (Outside … GlobalAll), and reverse (farthest-first)
// ordering.
package distjoin

import (
	"encoding/binary"
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// itemKind distinguishes the three kinds of queue-pair items.
type itemKind uint8

const (
	// kindNode is an index node, referenced by page id.
	kindNode itemKind = iota
	// kindOBR is a leaf entry holding an object bounding rectangle; the
	// exact geometry must be fetched before the pair can be reported
	// (Figure 3, lines 7–13).
	kindOBR
	// kindObj is exact object geometry (leaf entries when objects are
	// stored directly, or fetched geometry re-enqueued from an OBR pair).
	kindObj
)

// item is one half of a queue pair. c is its rectangle as one run of
// coordinates, low corner then high corner, in any dimensionality: a view
// into the block of the cached index node the item was read from, where the
// index keeps one, so queueing an item copies no geometry. Like the node it
// views, c is read-only.
type item struct {
	c     []float64
	ref   uint64
	kind  itemKind
	level int8 // node level; -1 for OBR/object items
	// blk is queue bookkeeping, not part of the item: on the first item of a
	// pair resting in the memory queue's heap, the id of the block of
	// siblings the pair heads (0: none). It lives in what was padding, so a
	// qpair keeps its 88 bytes; no pair outside that heap carries one.
	blk uint32
}

// newItem builds an item on its own copy of r's coordinates.
func newItem(kind itemKind, level int8, ref uint64, r geom.Rect) item {
	return item{c: concat(r.Lo, r.Hi), ref: ref, kind: kind, level: level}
}

// concat returns a and b copied into one new run.
func concat(a, b []float64) []float64 {
	return append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
}

func (it item) isNode() bool { return it.kind == kindNode }

// rect returns the item's rectangle, a view of its coordinates.
func (it item) rect() geom.Rect { return geom.RectOf(it.c) }

// lo0 and hi0 are the item's extent along axis 0, the plane sweep's axis.
func (it item) lo0() float64 { return it.c[0] }
func (it item) hi0() float64 { return it.c[len(it.c)/2] }

// qpair is a priority-queue element: a pair of items and its ordering key
// (the minimum distance between the items for forward joins; an upper
// distance bound for reverse joins).
type qpair struct {
	key    float64
	i1, i2 item
}

// rank orders pair kinds at equal distance: pairs of leaf entries before
// pairs involving nodes (§2.2.2).
func (p *qpair) rank() int {
	r := 0
	if p.i1.isNode() {
		r++
	}
	if p.i2.isNode() {
		r++
	}
	return r
}

func (p *qpair) levelSum() int { return int(p.i1.level) + int(p.i2.level) }

// pairBefore is the queue ordering: ascending key (descending for reverse),
// then leaf-entry pairs before node pairs, then — for equal distances among
// node pairs — deeper nodes first (depth-first tie-breaking) or shallower
// nodes first (breadth-first), and finally references for determinism.
func pairBefore(a, b *qpair, depthFirst, reverse bool) bool {
	if a.key != b.key {
		if reverse {
			return a.key > b.key
		}
		return a.key < b.key
	}
	if ra, rb := a.rank(), b.rank(); ra != rb {
		return ra < rb
	}
	if la, lb := a.levelSum(), b.levelSum(); la != lb {
		if depthFirst {
			return la < lb // deeper (smaller level) first
		}
		return la > lb // shallower first
	}
	if a.i1.ref != b.i1.ref {
		return a.i1.ref < b.i1.ref
	}
	return a.i2.ref < b.i2.ref
}

// pairLess is pairBefore on pairs by value, the form pqueue's queues take.
func pairLess(depthFirst, reverse bool) func(a, b qpair) bool {
	return func(a, b qpair) bool { return pairBefore(&a, &b, depthFirst, reverse) }
}

// pairLessInPlace is pairBefore on pairs where they lie: the memory queue's
// heap compares its 88-byte elements without copying either.
func pairLessInPlace(depthFirst, reverse bool) func(a, b *qpair) bool {
	return func(a, b *qpair) bool { return pairBefore(a, b, depthFirst, reverse) }
}

// pairCodec serializes qpairs for the disk tier of the hybrid queue: the
// key, the kinds, levels and refs, then each item's coordinate run as it
// lies in memory.
type pairCodec struct {
	dims int
	// spare is the unused rest of the block Decode last cut coordinate
	// runs from: a reloaded pair's geometry comes out of a block shared by
	// decodeBatch pairs — a bucket's pairs are reloaded together and popped
	// together — not out of slices of its own.
	spare []float64
}

// decodeBatch is how many decoded pairs share one coordinate block.
const decodeBatch = 64

// Own implements pqueue.Owner: the pair with its coordinates copied out of
// the index nodes they view into one small block of its own. The pairs that
// rest in the hybrid queue's memory tiers are few and die one by one; views
// would each keep a whole node block alive (and a shared block its 63
// neighbours), several times the bytes of the tiers themselves.
func (c *pairCodec) Own(p qpair) qpair {
	w := len(p.i1.c)
	co := concat(p.i1.c, p.i2.c)
	p.i1.c, p.i2.c = co[:w:w], co[w:]
	return p
}

const pairHeaderSize = 8 + 4 + 4 + 8 + 8

// Size implements pqueue.Codec.
func (c *pairCodec) Size() int { return pairHeaderSize + c.dims*4*8 }

// Encode implements pqueue.Codec.
func (c *pairCodec) Encode(dst []byte, p qpair) {
	binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(p.key))
	dst[8] = byte(p.i1.kind)
	dst[9] = byte(p.i1.level)
	dst[10] = byte(p.i2.kind)
	dst[11] = byte(p.i2.level)
	binary.LittleEndian.PutUint32(dst[12:], 0)
	binary.LittleEndian.PutUint64(dst[16:], p.i1.ref)
	binary.LittleEndian.PutUint64(dst[24:], p.i2.ref)
	w := 2 * c.dims
	dst = dst[pairHeaderSize : pairHeaderSize+2*w*8]
	for i, v := range p.i1.c[:w] {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
	for i, v := range p.i2.c[:w] {
		binary.LittleEndian.PutUint64(dst[(w+i)*8:], math.Float64bits(v))
	}
}

// Key implements pqueue.Keyer: the key of an encoded pair, read in place, so
// the disk tier can move a spilled pair between classes without decoding it.
func (c *pairCodec) Key(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src[0:]))
}

// Decode implements pqueue.Codec.
func (c *pairCodec) Decode(src []byte) qpair {
	var p qpair
	p.key = math.Float64frombits(binary.LittleEndian.Uint64(src[0:]))
	p.i1.kind = itemKind(src[8])
	p.i1.level = int8(src[9])
	p.i2.kind = itemKind(src[10])
	p.i2.level = int8(src[11])
	p.i1.ref = binary.LittleEndian.Uint64(src[16:])
	p.i2.ref = binary.LittleEndian.Uint64(src[24:])
	w := 2 * c.dims
	if len(c.spare) < 2*w {
		c.spare = make([]float64, decodeBatch*2*w)
	}
	co := c.spare[: 2*w : 2*w]
	c.spare = c.spare[2*w:]
	src = src[pairHeaderSize : pairHeaderSize+2*w*8]
	for i := range co {
		co[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	p.i1.c, p.i2.c = co[:w:w], co[w:]
	return p
}

// Pair is one result tuple of a distance join: the two object ids, their
// geometry, and their distance. Results are delivered in ascending (or, for
// reverse joins, descending) order of Dist. The rectangles are the pair's
// own copies: nothing the engine or another cursor reads is reachable
// through them.
type Pair struct {
	Obj1, Obj2   rtree.ObjID
	Rect1, Rect2 geom.Rect
	Dist         float64
}
