// Package pairheap implements a pairing heap (Fredman, Sedgewick, Sleator &
// Tarjan), the priority-queue structure the paper chose for the memory tier
// of its hybrid queue (§3.2, reference [13]). It supports O(1) amortized
// insert, O(log n) amortized delete-min, and arbitrary deletion through
// element handles — needed by the maximum-distance estimation structure Q_M
// of §2.2.4, which must delete pairs by identity.
//
// Elements live in a slab: fixed-size chunks of slots linked by 32-bit slot
// indices, freed slots chained for reuse. An insert therefore allocates
// nothing (one chunk per chunkSize inserts while the heap grows), a removal
// frees nothing, and the garbage collector sees a few large arrays instead
// of one object per queued element.
package pairheap

// Handle identifies an element of a heap, for Value and Delete. It is valid from the Insert that returned it until the
// element is removed; the slot is then reused.
type Handle int32

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits // slots per chunk: one allocation per 256 inserts

	none int32 = -1
)

// slot is one heap node. prev is the left sibling, or the parent for a first
// child; a free slot chains through next.
type slot[T any] struct {
	value             T
	child, next, prev int32
}

// Heap is a pairing heap ordered by the provided less function. The zero
// Heap is not usable; create one with New. Not safe for concurrent use.
type Heap[T any] struct {
	less   func(a, b T) bool
	chunks []*[chunkSize]slot[T]
	used   int32 // slots handed out so far, free ones included
	free   int32 // head of the free chain
	root   int32
	size   int
	pairs  []int32 // mergePairs' first-pass results, reused across calls
}

// New creates an empty heap ordered by less (a min-heap when less is "<").
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less, free: none, root: none}
}

// at returns slot i.
func (h *Heap[T]) at(i int32) *slot[T] { return &h.chunks[i>>chunkBits][i&(chunkSize-1)] }

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return h.size }

// Empty reports whether the heap has no elements.
func (h *Heap[T]) Empty() bool { return h.size == 0 }

// Min returns the smallest value without removing it. It panics on an empty
// heap.
func (h *Heap[T]) Min() T {
	if h.root == none {
		panic("pairheap: Min on empty heap")
	}
	return h.at(h.root).value
}

// Value returns the element behind a handle.
func (h *Heap[T]) Value(n Handle) T { return h.at(int32(n)).value }

// Insert adds value to the heap and returns its handle.
func (h *Heap[T]) Insert(value T) Handle {
	i := h.free
	if i != none {
		h.free = h.at(i).next
	} else {
		if i = h.used; int(i>>chunkBits) == len(h.chunks) {
			h.chunks = append(h.chunks, new([chunkSize]slot[T]))
		}
		h.used++
	}
	s := h.at(i)
	s.value, s.child, s.next, s.prev = value, none, none, none
	h.root = h.meld(h.root, i)
	h.size++
	return Handle(i)
}

// release returns a removed element's slot to the free chain, dropping its
// value so the heap keeps nothing the caller has let go of alive.
func (h *Heap[T]) release(i int32) T {
	s := h.at(i)
	v := s.value
	*s = slot[T]{next: h.free}
	h.free = i
	h.size--
	return v
}

// PopMin removes and returns the smallest value. It panics on an empty heap.
func (h *Heap[T]) PopMin() T {
	if h.root == none {
		panic("pairheap: PopMin on empty heap")
	}
	i := h.root
	h.root = h.mergePairs(h.at(i).child)
	return h.release(i)
}

// Delete removes an arbitrary element from the heap.
func (h *Heap[T]) Delete(n Handle) {
	i := int32(n)
	if i == h.root {
		h.PopMin()
		return
	}
	h.cut(i)
	h.root = h.meld(h.root, h.mergePairs(h.at(i).child))
	h.release(i)
}

// cut detaches i (a non-root node) from its parent's child list.
func (h *Heap[T]) cut(i int32) {
	s := h.at(i)
	if p := h.at(s.prev); p.child == i { // i is the first child; prev is the parent
		p.child = s.next
	} else {
		p.next = s.next
	}
	if s.next != none {
		h.at(s.next).prev = s.prev
	}
}

// meld links two heap roots, returning the smaller as the new root.
func (h *Heap[T]) meld(a, b int32) int32 {
	if a == none {
		return b
	}
	if b == none {
		return a
	}
	sa, sb := h.at(a), h.at(b)
	if h.less(sb.value, sa.value) {
		a, b, sa, sb = b, a, sb, sa
	}
	// b becomes the first child of a.
	sb.prev = a
	sb.next = sa.child
	if sa.child != none {
		h.at(sa.child).prev = b
	}
	sa.child = b
	sa.next, sa.prev = none, none
	return a
}

// mergePairs performs the two-pass pairing of a sibling list, the heart of
// delete-min, and returns the resulting root (detached: no parent).
func (h *Heap[T]) mergePairs(first int32) int32 {
	if first == none {
		return none
	}
	// Pass 1: meld adjacent pairs left to right.
	pairs := h.pairs[:0]
	for n := first; n != none; {
		a, b, rest := n, h.at(n).next, none
		sa := h.at(a)
		sa.next, sa.prev = none, none
		if b != none {
			sb := h.at(b)
			rest = sb.next
			sb.next, sb.prev = none, none
		}
		pairs = append(pairs, h.meld(a, b))
		n = rest
	}
	// Pass 2: meld right to left.
	result := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		result = h.meld(result, pairs[i])
	}
	h.pairs = pairs
	return result
}
