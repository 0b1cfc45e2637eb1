package distjoin

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"distjoin/internal/geom"
	"distjoin/internal/geom/kernel"
	"distjoin/internal/meter"
	"distjoin/internal/pager"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
)

// semiState holds the bookkeeping shared by the distance semi-join (§2.3,
// §4.2.1) and its two generalizations: the k-nearest-neighbours join (up to
// k partners per first-input object — the paper's §1 "all nearest
// neighbors" when run as a self join) and the symmetric "clustering join"
// of [32], where a reported pair consumes BOTH of its objects.
type semiState struct {
	filter    SemiFilter
	k         int            // partners per first object (>= 1)
	symmetric bool           // clustering join: consume BOTH objects of a reported pair
	seen      bitset         // S_A: first objects fully reported (bit-string, §3.2)
	seen2     bitset         // clustering join: consumed second-input objects
	counts    map[uint64]int // per-object partner counts when k > 1
	// bestNode[page] is the smallest d_max observed for pairs whose first
	// item is that node (FilterGlobalNodes and up).
	bestNode map[uint64]float64
	// bestObj[id] is the smallest d_max observed for pairs whose first
	// item is that object (FilterGlobalAll).
	bestObj map[uint64]float64
}

// done reports whether the first object needs no further partners.
func (s *semiState) done(ref uint64) bool { return s.seen.Has(ref) }

// record notes one reported partner for the first object and returns
// whether the object is now complete.
func (s *semiState) record(ref uint64) bool {
	if s.k <= 1 {
		s.seen.Add(ref)
		return true
	}
	s.counts[ref]++
	if s.counts[ref] >= s.k {
		s.seen.Add(ref)
		delete(s.counts, ref)
		return true
	}
	return false
}

// engine is the shared core of the incremental distance join and distance
// semi-join iterators.
type engine struct {
	t1, t2       SpatialIndex
	root1, root2 uint64 // root refs, exempt from min-fill counting
	opts         Options
	q            *blockQueue // either queue kind (blockqueue.go)
	dmin         float64     // effective minimum distance (raised by the estimator under Reverse)
	dmaxCur      float64     // effective maximum distance, tightened by the estimator
	est          *estimator
	semi         *semiState
	sweep        bool

	// scratch1 and scratch2 are reused across node expansions so that
	// childItems does not allocate a fresh slice per expanded node. Both
	// are pre-sized from the trees' max fan-out at construction.
	scratch1, scratch2 []item

	// kern dispatches the row kernels for the run's metric: they read a node's
	// entries where they lie, in IndexNode.Coords. dbuf is the kernel output
	// buffer and mbuf a second one of the same size, for the children's d_max
	// beside their distances; rows holds the one thing that is gathered — the
	// second node's entries in sweep order, so each run of the plane sweep is a
	// sub-run of rows. All are reused across expansions: generation allocates
	// nothing in steady state. scalarExpand forces the one-at-a-time reference
	// expansion; it is set only by the in-package differential tests, which
	// pin the two against each other pair for pair.
	kern         kernel.Batch
	rows         []float64
	dbuf, mbuf   []float64
	scalarExpand bool

	// m is this engine's one telemetry handle: every count, phase bracket
	// and emission of the engine and its queue goes through it, and it
	// folds into the caller's sinks at every next return. nil when no sink
	// is attached (next then bypasses the step bracket, and the per-pair
	// path reads no clock).
	m *meter.Meter

	// ctx and ctxDone carry the run's cancellation signal. ctxDone is
	// ctx.Done() captured once at construction: nil for a nil or
	// background context, in which case every cancellation check reduces
	// to one nil comparison — the hot path stays identical to a build
	// without cancellation (pinned by the gated bench counters and the
	// zero-alloc test). popsToCheck counts down queue pops until the next
	// in-loop check, bounding cancel latency within one long Next call.
	ctx         context.Context
	ctxDone     <-chan struct{}
	popsToCheck int

	// left counts, in a semi-join-family run, the completions that would
	// fill S_A: first objects (min(N1, N2) pairs in the clustering join)
	// not yet complete. At 0 nothing more can be reported and the run ends
	// without popping; where the options leave an object unreportable it
	// never gets there.
	left     int
	reported int
	done     bool

	// chunk is what is left of the block the reported pairs' coordinates
	// are carved from, reportChunk pairs at a time.
	chunk []float64
}

// reportChunk is the number of reported pairs one chunk holds: 4 KiB of
// coordinates at d = 2.
const reportChunk = 64

// newEngine builds the queue over validated options and seeds it with the
// root/root pair. m is the query's meter (nil when no view is attached);
// the caller closes it.
func newEngine(t1, t2 SpatialIndex, opts Options, semi *semiState, m *meter.Meter) (*engine, error) {
	e := &engine{
		t1:      t1,
		t2:      t2,
		opts:    opts,
		dmin:    opts.MinDist,
		dmaxCur: opts.MaxDist,
		semi:    semi,
		sweep:   !opts.NoPlaneSweep,
		m:       m,
		kern:    kernel.For(opts.Metric),
	}
	// Capture the cancellation signal before the queue is built: the retry
	// policy wired into the hybrid queue's store selects on the same
	// channel, so a canceled query also interrupts backoff sleeps.
	// context.Background().Done() is nil, so an explicit background
	// context costs exactly as much as no context at all.
	if opts.Context != nil {
		e.ctx = opts.Context
		e.ctxDone = opts.Context.Done()
	}
	// Pre-size the expansion scratch (items, sweep rows, kernel outputs) from
	// the trees' max fan-out so first expansions do not grow buffers mid-join.
	// scratch1 serves either tree; scratch2 and rows only hold second-tree
	// entries on the simultaneous path.
	f1, f2 := indexFanout(t1), indexFanout(t2)
	fmax := max(f1, f2)
	e.scratch1 = make([]item, 0, fmax)
	e.scratch2 = make([]item, 0, f2)
	e.rows = make([]float64, 0, f2*2*t1.Dims())
	e.dbuf, e.mbuf = make([]float64, fmax), make([]float64, fmax)
	// The §2.2.4 estimation needs every count M keeps to be a lower bound
	// on what the query reports within the pair's d_max (DESIGN.md §5). An
	// ExactDist hook is bounded by no rectangle's d_max, and a clustering
	// join's consumed second object can break any first item's count, so
	// neither runs it.
	if opts.MaxPairs > 0 && opts.ExactDist == nil && (semi == nil || !semi.symmetric) {
		e.est = newEstimator(opts.MaxPairs, semi != nil)
	}
	// The Local/Global semi-join filters prune against d_max bounds that
	// promise "some partner exists within this distance" — a promise that
	// breaks when second-input objects can be disqualified (window or
	// attribute selection) or when a minimum distance excludes near
	// partners. Degrade to the strongest still-sound filter.
	if semi != nil && semi.filter > FilterInside2 &&
		(opts.Window2 != nil || opts.Select2 != nil || opts.MinDist > 0 ||
			opts.OmitEqualIDs || semi.k > 1 || semi.symmetric) {
		semi.filter = FilterInside2
	}
	if semi != nil {
		e.left = t1.NumObjects()
		if semi.symmetric {
			e.left = min(e.left, t2.NumObjects())
		}
	}
	if semi != nil && semi.k > 1 {
		semi.counts = make(map[uint64]int)
	}
	if semi != nil && semi.filter >= FilterGlobalNodes {
		semi.bestNode = make(map[uint64]float64)
	}
	if semi != nil && semi.filter >= FilterGlobalAll {
		semi.bestObj = make(map[uint64]float64)
	}

	if err := e.makeQueue(); err != nil {
		return nil, err
	}
	if t1.NumObjects() == 0 || t2.NumObjects() == 0 {
		e.done = true
		return e, nil
	}
	if err := e.seed(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// makeQueue creates the priority queue per the configured kind: the block
// queue, over the hybrid queue's disk tier when that is the kind.
func (e *engine) makeQueue() error {
	e.q = newBlockQueue(e.opts.TieBreak == DepthFirst, e.opts.Reverse, e.m)
	switch e.opts.Queue {
	case QueueMemory:
	case QueueHybrid:
		pageSize := e.opts.queuePageSize()
		store, err := e.queueStore(pageSize)
		if err != nil {
			return err
		}
		cfg := pqueue.HybridConfig{DT: e.opts.HybridDT, PageSize: pageSize, Store: store, Meter: e.m}
		e.q.w = 2 * e.t1.Dims()
		if e.q.disk, err = pqueue.NewTier(cfg, recordHeader(e.q.w), recordItem(e.q.w, false), e.q.load); err != nil {
			store.Close()
		}
		return err
	default:
		return fmt.Errorf("distjoin: unknown queue kind %d", e.opts.Queue)
	}
	return nil
}

// queueStore builds the hybrid queue's disk-tier store: the QueueStore
// factory's, else a scratch file in HybridDir, behind the retry layer when
// RetryIO is on.
func (e *engine) queueStore(pageSize int) (pager.Store, error) {
	var store pager.Store
	var err error
	if e.opts.QueueStore != nil {
		if store, err = e.opts.QueueStore(pageSize); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrQueueStore, err)
		}
	} else if store, err = pager.NewFileStore(e.opts.HybridDir, pageSize); err != nil {
		return nil, err
	}
	if e.opts.RetryIO.Enabled() {
		store = pager.NewRetryStore(store, e.retryPolicy())
	}
	return store, nil
}

// retryPolicy extends the user's RetryIO callbacks with the engine's own
// accounting: faults and retries are reported to this engine's meter. The
// run's cancellation signal is wired into the policy's Done channel (unless
// the caller supplied their own), so a canceled query abandons the backoff
// ladder instead of sleeping through it.
func (e *engine) retryPolicy() pager.RetryPolicy {
	pol := e.opts.RetryIO
	if pol.Done == nil {
		pol.Done = e.ctxDone
	}
	userFault, userRetry, m := pol.OnFault, pol.OnRetry, e.m
	pol.OnFault = func(op string, err error) {
		m.Fault()
		if userFault != nil {
			userFault(op, err)
		}
	}
	pol.OnRetry = func(op string, attempt int, err error) {
		m.Retry()
		if userRetry != nil {
			userRetry(op, attempt, err)
		}
	}
	return pol
}

// seed enqueues the root/root pair, recording the root refs first — they
// stay exempt from min-fill counting.
func (e *engine) seed() error {
	r1, err := e.rootItem(e.t1)
	if err != nil {
		return err
	}
	r2, err := e.rootItem(e.t2)
	if err != nil {
		return err
	}
	e.root1, e.root2 = r1.ref, r2.ref
	return e.enqueue(r1, r2, noPre)
}

// indexFanout returns a tree's max fan-out via the optional spatial.Fanout
// extension, falling back to a conservative default for structures that do
// not report one (the scratch then grows once on the first large node).
func indexFanout(t SpatialIndex) int {
	if f, ok := t.(spatial.Fanout); ok {
		if n := f.MaxFanout(); n > 0 {
			return n
		}
	}
	return 32
}

// rootItem builds the queue item for an index's root node.
func (e *engine) rootItem(t SpatialIndex) (item, error) {
	root, err := t.Root()
	if err != nil {
		return item{}, err
	}
	return nodeItem(root), nil
}

// nodeItem builds the queue item for a referenced node.
func nodeItem(n NodeRef) item { return newItem(kindNode, int8(n.Level), n.Ref, n.Rect) }

// leafEntryKind is the item kind leaf entries carry: exact geometry when
// objects are stored directly, bounding rectangles when a fetch or
// exact-distance callback defers to external object geometry.
func (e *engine) leafEntryKind() itemKind {
	if e.opts.Fetch1 != nil || e.opts.ExactDist != nil {
		return kindOBR
	}
	return kindObj
}

// The enqueue ladder — what decides whether a generated pair reaches the
// queue, and under which key — is stated twice over the same rules: on items
// in enqueue, for the seeds, the simultaneous expansion and the scalar
// reference, and on a node's entries where they lie in generate, for every
// side expansion. Both move the counters at the same points and share the
// pieces that are not per-child arithmetic: admitted, intersectionKey,
// needMax, semiGlobalAdmit, keyedByMax, observe.

// noPre stands for a minimum distance no kernel has computed (a pre-distance
// is never negative): enqueue then asks the scalar metric.
const noPre = -1.0

// enqueue puts a pair of items through the ladder and inserts it if it
// survives: the §2.2.5 selections, equal-id omission, the intersection
// ordering's own keying, the semi-join's Inside2 rules, the distance count,
// the range filter, then — for what asks for a d_max — the minimum-distance
// test, the Global rules, the reverse key and estimation. pre is the pair's
// minimum distance as a row kernel computed it (squared, for the deferred L2
// kernel: the range filter then compares in the pre domain and only a
// survivor pays its Sqrt), or noPre.
func (e *engine) enqueue(i1, i2 item, pre float64) error {
	o, s := &e.opts, e.semi
	if !admitted(o.Window1, o.Select1, i1.isNode(), i1.ref, i1.rect()) ||
		!admitted(o.Window2, o.Select2, i2.isNode(), i2.ref, i2.rect()) ||
		(o.OmitEqualIDs && !i1.isNode() && !i2.isNode() && i1.ref == i2.ref) {
		e.m.Filter(1)
		return nil
	}
	if len(o.OrderIntersectionsFrom) > 0 {
		key, ok := e.intersectionKey(i1, i2)
		if !ok {
			return nil
		}
		return e.insert(qpair{key: key, i1: i1, i2: i2})
	}
	// Inside2: drop a pair whose first object has been reported (or, in the
	// clustering join, whose second is consumed) before it reaches the queue.
	if s != nil && s.filter >= FilterInside2 &&
		((!i1.isNode() && s.done(i1.ref)) || (s.symmetric && !i2.isNode() && s.seen2.Has(i2.ref))) {
		e.m.Filter(1)
		return nil
	}
	e.countDistCalc(i1, i2)
	var d float64
	var far bool
	if pre == noPre {
		d = o.Metric.MinDist(i1.rect(), i2.rect())
		far = d > e.dmaxCur
	} else {
		far = e.kern.PreGreater(pre, e.dmaxCur)
	}
	if far {
		e.m.Filter(1)
		return nil
	}
	if pre != noPre {
		d = e.kern.Finish(pre)
	}
	var dmax float64 // read only where needMax has filled it
	if e.needMax() {
		dmax = e.maxDist(i1, i2)
		if dmax < e.dmin {
			e.m.Filter(1)
			return nil
		}
	}
	if s != nil && !e.semiGlobalAdmit(i1.isNode(), i1.ref, d, dmax) {
		e.m.Filter(1)
		return nil
	}
	p := qpair{key: d, i1: i1, i2: i2}
	if e.keyedByMax(i1.kind, i2.kind) {
		p.key = dmax
	}
	if !e.observe(p, d, dmax) {
		return nil
	}
	return e.insert(p)
}

// needMax reports whether the ladder asks for a pair's d_max once its
// distance has passed the range filter: a minimum distance, the
// estimator, the reverse order's keys, or the semi-join's Global rules.
func (e *engine) needMax() bool {
	return e.dmin > 0 || e.est != nil || e.opts.Reverse ||
		(e.semi != nil && e.semi.filter >= FilterGlobalNodes)
}

// keyedByMax reports whether a pair of these kinds is queued under its upper
// bound: farthest-first ordering keys node and OBR pairs by d_max (§2.2.5),
// exact object pairs keep their true distance.
func (e *engine) keyedByMax(k1, k2 itemKind) bool {
	return e.opts.Reverse && (k1 != kindObj || k2 != kindObj)
}

// observe shows a pair that is about to be queued — under p.key, with minimum
// distance d and upper bound dmax — to the estimator in force, which may
// tighten the engine's distance range. It is false when the estimator's
// raised minimum distance prunes the pair itself.
func (e *engine) observe(p qpair, d, dmax float64) bool {
	// A reported semi-join object yields nothing more, and a pair that
	// guarantees nothing would only displace its first item's counted entry:
	// neither enters M (DESIGN.md §5).
	if e.est == nil || e.est.semi && !p.i1.isNode() && e.semi.seen.Has(p.i1.ref) {
		return true
	}
	count := e.guaranteed(p)
	if count == 0 {
		return true
	}
	if !e.opts.Reverse {
		e.dmaxCur = e.est.observe(p, d, dmax, e.dmin, e.dmaxCur, count)
		return true
	}
	// Farthest-first (§2.2.5) is §2.2.4 with min and max swapped, so the
	// estimator sees every distance negated: it raises the minimum distance
	// to the K-th farthest pair's lower bound. Negation is exact and flips
	// every comparison, so M holds and evicts what a minimum-ordered M would.
	e.dmin = -e.est.observe(p, -dmax, -d, -e.opts.MaxDist, -e.dmin, count)
	if dmax < e.dmin {
		// The raised bound rules the pair itself out of the K farthest.
		e.est.onPop(p) // keep M consistent with the queue
		e.m.Filter(1)
		return false
	}
	return true
}

// admitted applies one input's selection criteria of §2.2.5 — its window w
// and its predicate sel, either of which may be nil — to an item of that
// input, given as what they ask about: a window test on its rectangle
// (pruning whole subtrees whose region misses the window) and an attribute
// predicate on an object's id.
func admitted(w *geom.Rect, sel func(rtree.ObjID) bool, isNode bool, ref uint64, r geom.Rect) bool {
	if w != nil {
		if isNode {
			if !r.Intersects(*w) {
				return false
			}
		} else if !w.Contains(r) {
			return false
		}
	}
	return sel == nil || isNode || sel(rtree.ObjID(ref))
}

// intersectionKey keys a pair for the §2.2.5 secondary-ordering mode: pairs
// that cannot intersect are discarded (ok false), and the rest are ordered by
// the distance of their (potential) intersection region from the anchor
// point. Shrinking to child regions shrinks the intersection, which can
// only increase that distance, so the ordering is consistent.
func (e *engine) intersectionKey(i1, i2 item) (key float64, ok bool) {
	x, ok := i1.rect().Intersection(i2.rect())
	e.m.DistCalc(i1.kind != kindObj || i2.kind != kindObj)
	if !ok {
		e.m.Filter(1)
		return 0, false
	}
	return e.opts.Metric.MinDistPR(e.opts.OrderIntersectionsFrom, x), true
}

// semiGlobalAdmit applies the GlobalNodes/GlobalAll pruning (§4.2.1): a
// pair is useless if some earlier pair with the same first item guarantees
// a closer partner for every object it covers. The first item is given as
// what the tables are keyed by: whether it is a node, and its ref. The
// tables are updated before the test, also by a pair the test then rejects.
func (e *engine) semiGlobalAdmit(isNode bool, ref uint64, d, dmax float64) bool {
	table := e.semi.bestObj
	if isNode {
		table = e.semi.bestNode
	}
	if table == nil {
		return true
	}
	best, ok := table[ref]
	if !ok || dmax < best {
		table[ref] = dmax
		best = dmax
	}
	return d <= best
}

// next drives the algorithm until the next reportable object pair. With a
// meter attached the call is one step of it: the step opens in the pop
// phase, an emitted pair is reported, and the meter folds into the caller's
// sinks before next returns. Without one, the direct path takes no clock
// reads at all.
func (e *engine) next() (Pair, bool, error) {
	if e.m == nil {
		return e.step()
	}
	e.m.BeginStep(meter.PhasePop)
	p, ok, err := e.step()
	if ok {
		e.m.Emit(p.Dist, e.q.Len())
	}
	e.m.EndStep(meter.PhaseEmit)
	return p, ok, err
}

// pop dequeues in the pop phase, which the dequeue-time checks that follow
// stay in until the pair is expanded or reported (the queue's disk-tier
// fetch brackets itself out of it).
func (e *engine) pop() (qpair, bool, error) {
	e.m.Switch(meter.PhasePop)
	return e.q.Pop()
}

// insert enqueues a pair that stands for itself in a push bracket nested in
// the running phase (the queue's disk-tier spill brackets itself out of it).
func (e *engine) insert(p qpair) error {
	ph := e.m.Begin(meter.PhasePush)
	err := e.q.Insert(p)
	e.m.End(ph)
	return err
}

// step is the engine loop behind next.
func (e *engine) step() (Pair, bool, error) {
	if e.done {
		return Pair{}, false, nil
	}
	// Cancellation check, per Next call: a context canceled between Next
	// calls is observed by the very next one, so the delivered prefix is
	// exactly the pairs consumed before cancellation. It comes before the
	// end shortcuts: a run canceled after its last pair was delivered, but
	// before any Next saw it was the last, ends canceled, not done.
	// With a nil or background context (ctxDone == nil) this is a single
	// nil test.
	if e.ctxDone != nil {
		select {
		case <-e.ctxDone:
			return Pair{}, false, canceledErr(e.ctx)
		default:
		}
		e.popsToCheck = cancelCheckEvery
	}
	// The run ends without popping once the caller has MaxPairs pairs, or
	// once S_A is full: every first object completed, so no pair is left
	// that report would let through.
	if e.opts.MaxPairs > 0 && e.reported >= e.opts.MaxPairs || e.semi != nil && e.left == 0 {
		e.done = true
		return Pair{}, false, nil
	}
	for {
		p, ok, err := e.pop()
		if err != nil {
			return Pair{}, false, e.surface(err)
		}
		if !ok {
			e.done = true
			return Pair{}, false, nil
		}
		// In-loop cancellation check at a bounded cadence: a Next call
		// that grinds through a long run of filtered pairs still observes
		// cancellation within cancelCheckEvery pops.
		if e.ctxDone != nil {
			if e.popsToCheck--; e.popsToCheck <= 0 {
				select {
				case <-e.ctxDone:
					return Pair{}, false, canceledErr(e.ctx)
				default:
				}
				e.popsToCheck = cancelCheckEvery
			}
		}
		if e.est != nil {
			e.est.onPop(p)
		}
		// The effective maximum may have tightened after this pair was
		// queued (a forward join keys a pair by its minimum distance).
		if !e.opts.Reverse && p.key > e.dmaxCur {
			e.m.Filter(1)
			continue
		}
		// Semi-join Inside1 filtering at dequeue time.
		if e.semi != nil && e.semi.filter >= FilterInside1 &&
			!p.i1.isNode() && e.semi.done(p.i1.ref) {
			e.m.Filter(1)
			continue
		}
		if e.semi != nil && e.semi.symmetric && e.semi.filter >= FilterInside1 &&
			!p.i2.isNode() && e.semi.seen2.Has(p.i2.ref) {
			e.m.Filter(1)
			continue
		}

		switch {
		case p.i1.kind == kindObj && p.i2.kind == kindObj:
			if pair, report := e.report(p); report {
				return pair, true, nil
			}
		case p.i1.kind == kindOBR && p.i2.kind == kindOBR:
			reportable, exact, err := e.resolveOBR(&p)
			if err != nil {
				return Pair{}, false, e.surface(err)
			}
			if !exact {
				continue // pruned by the distance range
			}
			if reportable {
				if pair, report := e.report(p); report {
					return pair, true, nil
				}
			}
		default:
			if err := e.expand(p); err != nil {
				return Pair{}, false, e.surface(err)
			}
		}
	}
}

// surface maps an engine-loop error before it is returned: an error that
// arrives while the run's context is already canceled — e.g. a retry
// ladder abandoned mid-backoff — is folded into ErrCanceled, so callers
// see one coherent cancellation instead of a storage failure provoked by
// their own cancel.
func (e *engine) surface(err error) error { return wrapCanceled(e.ctx, err) }

// report delivers an exact object pair, applying the range check and the
// semi-join duplicate filter. The boolean is false when the pair must be
// silently skipped.
func (e *engine) report(p qpair) (Pair, bool) {
	if p.key < e.dmin {
		e.m.Filter(1)
		return Pair{}, false
	}
	if e.semi != nil {
		if e.semi.done(p.i1.ref) || (e.semi.symmetric && e.semi.seen2.Has(p.i2.ref)) {
			e.m.Filter(1)
			return Pair{}, false
		}
		if e.semi.record(p.i1.ref) {
			e.left--
			if e.semi.bestObj != nil {
				delete(e.semi.bestObj, p.i1.ref)
			}
		}
		if e.semi.symmetric {
			e.semi.seen2.Add(p.i2.ref)
		}
	}
	if e.est != nil {
		e.est.onReport(p)
	}
	e.m.Switch(meter.PhaseEmit)
	e.reported++
	// The items' coordinates may be views of index nodes every cursor on
	// the index shares: the caller gets copies, both in one block carved
	// from the engine's current chunk. The carve is capped, so appending to
	// a rectangle never reaches a neighbour's coordinates, and a chunk is
	// never reused: its pairs belong to the caller.
	w, n := len(p.i1.c), len(p.i1.c)+len(p.i2.c)
	if len(e.chunk) < n {
		e.chunk = make([]float64, reportChunk*n)
	}
	c := e.chunk[:n:n]
	e.chunk = e.chunk[n:]
	copy(c, p.i1.c)
	copy(c[w:], p.i2.c)
	return Pair{
		Obj1:  rtree.ObjID(p.i1.ref),
		Obj2:  rtree.ObjID(p.i2.ref),
		Rect1: item{c: c[:w:w]}.rect(),
		Rect2: item{c: c[w:]}.rect(),
		Dist:  p.key,
	}, true
}

// resolveOBR handles a dequeued OBR/OBR pair (Figure 3 lines 7–13): fetch
// the exact geometry, compute the true distance, and either report the pair
// immediately (when it still beats the queue head) or re-enqueue it as an
// exact pair. Returns reportable=false, exact=false when the pair fails the
// distance range.
func (e *engine) resolveOBR(p *qpair) (reportable, exact bool, err error) {
	p.i1.kind, p.i2.kind = kindObj, kindObj
	if e.opts.Fetch1 != nil {
		r1, err := e.opts.Fetch1(rtree.ObjID(p.i1.ref))
		if err != nil {
			return false, false, fmt.Errorf("distjoin: fetching object %d from input 1: %w", p.i1.ref, err)
		}
		r2, err := e.opts.Fetch2(rtree.ObjID(p.i2.ref))
		if err != nil {
			return false, false, fmt.Errorf("distjoin: fetching object %d from input 2: %w", p.i2.ref, err)
		}
		p.i1, p.i2 = newItem(kindObj, -1, p.i1.ref, r1), newItem(kindObj, -1, p.i2.ref, r2)
	}
	var d float64
	if e.opts.ExactDist != nil {
		d, err = e.opts.ExactDist(rtree.ObjID(p.i1.ref), rtree.ObjID(p.i2.ref))
		if err != nil {
			return false, false, fmt.Errorf("distjoin: exact distance of (%d, %d): %w", p.i1.ref, p.i2.ref, err)
		}
		e.m.DistCalc(false)
	} else {
		d = e.minDist(p.i1, p.i2)
	}
	if d < e.dmin || d > e.dmaxCur {
		e.m.Filter(1)
		return false, false, nil
	}
	p.key = d
	front, ok, err := e.q.Peek()
	if err != nil {
		return false, false, err
	}
	better := !ok
	if ok {
		if e.opts.Reverse {
			better = d >= front.key
		} else {
			better = d <= front.key
		}
	}
	if better {
		return true, true, nil
	}
	if err := e.insert(*p); err != nil {
		return false, false, err
	}
	return false, true, nil
}

// expand processes a pair with at least one node in the expand phase (a
// block of children hands over to the push phase, single enqueues bracket
// themselves out of it).
func (e *engine) expand(p qpair) error {
	e.m.Expand()
	e.m.Switch(meter.PhaseExpand)
	return e.expandPair(p)
}

// expandPair dispatches the expansion according to the traversal policy.
func (e *engine) expandPair(p qpair) error {
	switch {
	case p.i1.isNode() && p.i2.isNode():
		if e.opts.DeferLeaves {
			// §2.2.2: when leaves lack bounding rectangles it pays to hold
			// a leaf back until the other side reaches a leaf too, then
			// process both at once.
			leaf1, err := e.isLeaf(e.t1, p.i1)
			if err != nil {
				return err
			}
			leaf2, err := e.isLeaf(e.t2, p.i2)
			if err != nil {
				return err
			}
			switch {
			case leaf1 && leaf2:
				return e.expandBoth(p)
			case leaf1:
				return e.expandSide(p, 2)
			case leaf2:
				return e.expandSide(p, 1)
			}
		}
		switch e.opts.Traversal {
		case TraverseSimultaneous:
			return e.expandBoth(p)
		case TraverseBasic:
			return e.expandSide(p, 1)
		default: // TraverseEven: process the shallower node; ties go to item 1.
			if int(p.i2.level) > int(p.i1.level) {
				return e.expandSide(p, 2)
			}
			return e.expandSide(p, 1)
		}
	case p.i1.isNode():
		return e.expandSide(p, 1)
	default:
		return e.expandSide(p, 2)
	}
}

// isLeaf reports whether a node item is a leaf. Level 0 is necessarily a
// leaf in both supported structures; higher levels require a probe (an
// unbalanced structure may hold leaves anywhere).
func (e *engine) isLeaf(t SpatialIndex, it item) (bool, error) {
	if it.level == 0 {
		return true, nil
	}
	n, err := t.Node(it.ref)
	if err != nil {
		return false, err
	}
	return n.Leaf, nil
}

// expandSide replaces the node on the given side with its entries,
// enqueueing one new pair per entry (ProcessNode1/ProcessNode2 of Figure 3,
// with the Figure 5 range checks applied as the pairs are generated).
func (e *engine) expandSide(p qpair, side int) error {
	t, nodeItem, other := e.t1, p.i1, p.i2
	if side == 2 {
		t, nodeItem, other = e.t2, p.i2, p.i1
	}
	n, err := t.Node(nodeItem.ref)
	if err != nil {
		return err
	}
	if e.scalarExpand {
		return e.scalarChildren(n, other, side)
	}
	// The children enter as one block: opened only now that the node is
	// read, so a failed expansion leaves none half open.
	e.q.begin(other, n, side, e.leafEntryKind())
	e.generate(&e.q.cur, nodeItem.rect())
	e.m.Switch(meter.PhasePush)
	return e.q.end()
}

// generate is the child generator of every side expansion, whatever the
// query and the queue: it pairs each entry of expansion b's node, which
// covers region, with b's other item and runs the enqueue ladder on (entry
// index, pre-distance, pre-d_max) straight from the node's coordinate block
// — MinDistRows, and MaxDistRows where a d_max is asked for — and on the refs
// the node holds. A child that is dropped never becomes an item, and a d_max
// is computed once. A survivor goes to the queue's open block as (key, entry
// index); it is made a pair only for what must look at it as one:
// intersection ordering and an estimator.
//
// The rungs come in enqueue's order, after the semi-join's Local rule on a
// second-input node, and move the counters as they do there; each drop is
// one Filter. Nothing is asked of other again: it passed the selections when
// it was queued, and step has just applied the Inside1 rule to it, which is
// all Inside2 would ask. The one loop below holds the rungs every query
// climbs — Local, the count, the range test, the Finish; the others stand in
// selected and bounded, behind one test each (ladder says why).
//
// d_max is the row kernel's Metric.MaxDist whenever neither operand is a
// non-degenerate object rectangle (engine.maxDist reduces to it, bit for bit:
// §11 of DESIGN.md), and between two points the distance itself; a rectangle
// object, or a leaf not known to hold points, takes the scalar face minimum.
func (e *engine) generate(b *block, region geom.Rect) {
	n, other, side := b.node, b.other, int(b.side)
	s, o, q := e.semi, &e.opts, other.rect()
	g := ladder{b: b, w: len(other.c)}
	count := len(n.Coords) / g.w
	e.growOut(count)
	pres := e.dbuf[:count]
	e.kern.MinDistRows(q, n.Coords, pres)

	// What the query asks of a child before its distance counts (§2.2.5):
	// its side's window and predicate, equal ids, intersection ordering. A
	// window that contains the node's region contains every entry of it (a
	// node's region covers its entries); dropping it here keeps an
	// all-covering window off the per-child path (DESIGN.md §5).
	g.win, g.sel = o.Window1, o.Select1
	if side == 2 {
		g.win, g.sel = o.Window2, o.Select2
	}
	if g.win != nil && g.win.Contains(region) {
		g.win = nil
	}
	g.omit = o.OmitEqualIDs && n.Leaf && !other.isNode()
	g.byIntersection = len(o.OrderIntersectionsFrom) > 0
	g.selects = g.win != nil || g.sel != nil || g.omit || g.byIntersection
	// The semi-join's Inside2 rule asks about a pair's first object — the
	// child on side 1 — and the clustering join's about its second.
	inside2 := s != nil && s.filter >= FilterInside2 && n.Leaf
	g.childDone = inside2 && side == 1
	g.childSeen2 = inside2 && side == 2 && s.symmetric
	childKind := b.kind
	if !n.Leaf {
		childKind = kindNode
	}
	g.keyMax = e.keyedByMax(other.kind, childKind)

	// maxs[i] is child i's d_max: the kernel's pre-distance if rowMax, else
	// the finished scalar bound — filled for every child when the Local rule
	// needs their minimum, left to the survivors otherwise.
	needMax := e.needMax()
	g.local = s != nil && side == 2 && s.filter >= FilterLocal
	g.rowMax = (other.isNode() || q.IsPoint()) && (!n.Leaf || n.Points)
	g.maxs = e.mbuf[:count]
	switch {
	case !g.local && !needMax:
	case g.rowMax && !other.isNode() && n.Leaf: // two points
		g.maxs = pres
	case g.rowMax:
		e.kern.MaxDistRows(q, n.Coords, g.maxs)
	case g.local:
		for i := range g.maxs {
			g.maxs[i] = e.maxDist(other, childItem(n, i, g.w, b.kind))
		}
	}
	// Local pruning (§4.2.1): nothing farther than the smallest d_max among
	// a second-input node's entries can be anybody's nearest partner. Sqrt
	// is monotone, so the minimum is taken before the one Finish.
	local, localBound := g.local, math.Inf(1)
	if local {
		for _, m := range g.maxs {
			if m < localBound {
				localBound = m
			}
		}
		if g.rowMax {
			localBound = e.kern.Finish(localBound)
		}
	}

	early := g.selects || g.childDone || g.childSeen2
	nodeCalc := other.isNode() || !n.Leaf
	for i, pre := range pres {
		if local && e.kern.PreGreater(pre, localBound) {
			e.m.Filter(1)
			continue
		}
		if early && !e.selected(&g, i) {
			continue
		}
		e.m.DistCalc(nodeCalc)
		if e.kern.PreGreater(pre, e.dmaxCur) {
			e.m.Filter(1)
			continue
		}
		key := e.kern.Finish(pre)
		if needMax {
			var ok bool
			if key, ok = e.bounded(&g, i, key); !ok {
				continue
			}
		}
		e.q.collect(key, i) // inline: a call per survivor is 7 % of the join's first pair
	}
}

// ladder is what one side expansion asks of a child off the path every query
// takes — the rungs before the distance count (selected) and after the range
// test (bounded) — as generate settled it before the first child. They are
// methods, not blocks of generate's loop, for the loop's sake: written out
// there they keep two dozen values live across it, spilled and reloaded
// around every child (§11 of DESIGN.md has what that costs a join).
type ladder struct {
	b *block
	w int // coordinates per entry

	win                           *geom.Rect
	sel                           func(rtree.ObjID) bool
	omit, byIntersection, selects bool // selects: any of win, sel, omit, byIntersection
	childDone, childSeen2         bool
	maxs                          []float64
	rowMax, local, keyMax         bool
}

// selected runs the rungs that stand before the distance count on child i:
// the selections, intersection ordering — which queues the child under a key
// of its own, so it is false then too — and Inside2.
func (e *engine) selected(g *ladder, i int) bool {
	n, other := g.b.node, g.b.other
	if g.selects {
		ref := n.Refs[i]
		if !admitted(g.win, g.sel, !n.Leaf, ref, geom.RectOf(n.Coords[i*g.w:(i+1)*g.w])) || (g.omit && ref == other.ref) {
			e.m.Filter(1)
			return false
		}
		if g.byIntersection {
			p := g.b.pair(0, i)
			if key, ok := e.intersectionKey(p.i1, p.i2); ok {
				e.q.collect(key, i)
			}
			return false
		}
	}
	if (g.childDone && e.semi.done(n.Refs[i])) || (g.childSeen2 && e.semi.seen2.Has(n.Refs[i])) {
		e.m.Filter(1)
		return false
	}
	return true
}

// bounded runs the rungs that stand after the range test on child i, at
// distance d: its d_max and the MinDist test on it, the Global rules, the key
// it is queued under and the estimator's look at the pair.
func (e *engine) bounded(g *ladder, i int, d float64) (key float64, ok bool) {
	n, other := g.b.node, g.b.other
	var dmax float64
	switch {
	case g.rowMax:
		dmax = e.kern.Finish(g.maxs[i])
	case g.local:
		dmax = g.maxs[i]
	case g.b.side == 1:
		dmax = e.maxDist(childItem(n, i, g.w, g.b.kind), other)
	default:
		dmax = e.maxDist(other, childItem(n, i, g.w, g.b.kind))
	}
	if dmax < e.dmin {
		e.m.Filter(1)
		return 0, false
	}
	if e.semi != nil && e.semi.filter >= FilterGlobalNodes {
		// The pair's first item, whose d_max tables the Global rules consult,
		// is the child on side 1 and other on side 2.
		firstNode, firstRef := other.isNode(), other.ref
		if g.b.side == 1 {
			firstNode, firstRef = !n.Leaf, n.Refs[i]
		}
		if !e.semiGlobalAdmit(firstNode, firstRef, d, dmax) {
			e.m.Filter(1)
			return 0, false
		}
	}
	key = d
	if g.keyMax {
		key = dmax
	}
	return key, e.est == nil || e.observe(g.b.pair(key, i), d, dmax)
}

// scalarChildren is the reference generate is pinned against: every entry of
// node n made an item, its distance computed by the scalar metric, the pair
// put through enqueue and inserted on its own.
func (e *engine) scalarChildren(n *IndexNode, other item, side int) error {
	e.scratch1 = appendNodeItems(e.scratch1[:0], n, e.leafEntryKind())
	children := e.scratch1
	localBound := math.Inf(1)
	if side == 2 && e.semi != nil && e.semi.filter >= FilterLocal {
		for _, c := range children {
			if m := e.maxDist(other, c); m < localBound {
				localBound = m
			}
		}
	}
	for _, c := range children {
		if localBound < math.Inf(1) && e.opts.Metric.MinDist(other.rect(), c.rect()) > localBound {
			e.m.Filter(1)
			continue
		}
		i1, i2 := c, other
		if side == 2 {
			i1, i2 = other, c
		}
		if err := e.enqueue(i1, i2, noPre); err != nil {
			return err
		}
	}
	return nil
}

// growOut makes room for n kernel outputs in dbuf and in mbuf: a node
// beyond the fan-out hint they were sized from grows both, once.
func (e *engine) growOut(n int) {
	if cap(e.dbuf) < n {
		e.dbuf, e.mbuf = make([]float64, n), make([]float64, n)
	}
}

// appendNodeItems converts a node's entries into queue items, appending to
// buf. Callers pass a per-engine scratch buffer so steady-state expansions
// allocate nothing. The items view the node's coordinate block.
func appendNodeItems(buf []item, n *IndexNode, leafKind itemKind) []item {
	count := len(n.Refs)
	if count == 0 {
		return buf
	}
	w := len(n.Coords) / count
	for i := 0; i < count; i++ {
		buf = append(buf, childItem(n, i, w, leafKind))
	}
	return buf
}

// childItem is entry i of node n as a queue item: a view of its w
// coordinates in the node's block.
func childItem(n *IndexNode, i, w int, leafKind itemKind) item {
	it := item{c: n.Coords[i*w : (i+1)*w : (i+1)*w], kind: leafKind, level: -1, ref: n.Refs[i]}
	if !n.Leaf {
		it.kind, it.level = kindNode, int8(n.ChildLevel(i))
	}
	return it
}

// expandBoth processes both nodes of a node/node pair simultaneously
// (§2.2.2, "Simultaneous"), pairing up the entries of the two nodes. When a
// finite maximum distance is in force, entries outside the range of the
// opposite node are filtered first and a plane sweep along axis 0 limits
// the candidate pairs (Figure 4, with the sweep extended by D_max). Both
// entries of a pair are children here, so the pairs are made of items and go
// through enqueue; their distances come from the same row kernel as a side
// expansion's — or, under scalarExpand, from the scalar metric (noPre).
func (e *engine) expandBoth(p qpair) error {
	n1, err := e.t1.Node(p.i1.ref)
	if err != nil {
		return err
	}
	n2, err := e.t2.Node(p.i2.ref)
	if err != nil {
		return err
	}
	kind := e.leafEntryKind()
	e.scratch1 = appendNodeItems(e.scratch1[:0], n1, kind)
	e.scratch2 = appendNodeItems(e.scratch2[:0], n2, kind)
	c1, c2 := e.scratch1, e.scratch2

	if e.sweep && !math.IsInf(e.dmaxCur, 1) {
		// Restrict the search space: keep only entries within D_max of the
		// space spanned by the opposite node.
		c1 = e.withinOf(c1, n1.Coords, p.i2.rect())
		c2 = e.withinOf(c2, n2.Coords, p.i1.rect())
		// Plane sweep along axis 0 over entries sorted by low edge.
		// slices.SortFunc avoids sort.Slice's reflection and per-call
		// closure allocations on this hot path.
		byLowEdge := func(a, b item) int { return cmp.Compare(a.lo0(), b.lo0()) }
		slices.SortFunc(c1, byLowEdge)
		slices.SortFunc(c2, byLowEdge)
		return e.sweepPairs(c1, c2)
	}
	// Full cross product: one kernel call per first-side entry covers its
	// whole row of the pair block, over the second node's entries where they
	// lie.
	e.growOut(len(c2))
	out := e.dbuf[:len(c2)]
	for _, a := range c1 {
		if !e.scalarExpand {
			e.kern.MinDistRows(a.rect(), n2.Coords, out)
		}
		for i, b := range c2 {
			pre := noPre
			if !e.scalarExpand {
				pre = out[i]
			}
			if err := e.enqueue(a, b, pre); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepPairs is the Figure 4 plane sweep over two lists sorted by low edge:
// c2's rectangles are gathered into rows in sweep order, and the candidate
// run of each first-side entry is evaluated by a single kernel call over its
// sub-run of them. The run is delimited against the current D_max, and the
// live bound — which estimation can only tighten, never relax, during a
// join — is re-checked per pair before enqueueing, so a tightened bound
// truncates the precomputed run exactly where it would break a sweep that
// computed one distance at a time. Pairs the sweep window skips cost no
// distance computation and no queue work; they are tallied as BatchPruned.
func (e *engine) sweepPairs(c1, c2 []item) error {
	e.rows = e.rows[:0]
	for _, b := range c2 {
		e.rows = append(e.rows, b.c...)
	}
	e.growOut(len(c2))
	start := 0
	var pruned int64
	for _, a := range c1 {
		// Advance past entries that end before the sweep window.
		for start < len(c2) && c2[start].hi0() < a.lo0()-e.dmaxCur {
			start++
		}
		end := start
		for end < len(c2) && c2[end].lo0() <= a.hi0()+e.dmaxCur {
			end++
		}
		w, out := len(a.c), e.dbuf[:end-start]
		if !e.scalarExpand {
			e.kern.MinDistRows(a.rect(), e.rows[start*w:end*w], out)
		}
		evaluated := 0
		for k := start; k < end; k++ {
			b := c2[k]
			if b.lo0() > a.hi0()+e.dmaxCur {
				break // D_max tightened mid-run; the rest is out of window
			}
			evaluated++
			pre := noPre
			if !e.scalarExpand {
				pre = out[k-start]
			}
			if err := e.enqueue(a, b, pre); err != nil {
				return err
			}
		}
		pruned += int64(len(c2) - evaluated)
	}
	e.m.BatchPruned(pruned)
	return nil
}

// withinOf filters items — all of a node's entries, whose rectangles lie in
// rows — to those within the effective maximum distance of the region
// spanned by the opposite node: every candidate's distance from one kernel
// call, compared in the pre domain.
func (e *engine) withinOf(items []item, rows []float64, opposite geom.Rect) []item {
	e.growOut(len(items))
	pres := e.dbuf[:len(items)]
	if !e.scalarExpand {
		e.kern.MinDistRows(opposite, rows, pres)
	}
	out := items[:0]
	for i, it := range items {
		var within bool
		if e.scalarExpand {
			within = e.opts.Metric.MinDist(it.rect(), opposite) <= e.dmaxCur
		} else {
			within = e.kern.PreLessEq(pres[i], e.dmaxCur)
		}
		if within {
			out = append(out, it)
		} else {
			e.m.Filter(1)
		}
	}
	return out
}

// close releases queue resources; the queue's Close is idempotent.
func (e *engine) close() error { return e.q.Close() }
