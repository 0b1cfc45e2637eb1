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
	q            pqueue.Queue[qpair]
	dmin         float64 // effective minimum distance (raised by the reverse estimator)
	dmaxCur      float64 // effective maximum distance, tightened by the estimator
	est          *estimator
	revEst       *revEstimator
	semi         *semiState
	sweep        bool

	// bq is q when q is the memory queue, nil on the hybrid queue: the side
	// expansions hand it their children as one block (blockqueue.go). child
	// is the entry index, in the node being expanded, of the child the
	// enqueue path is deciding on — what insert collects while bq is open.
	bq    *blockQueue
	child int

	// seedPairs, when non-nil, replaces the root/root seed with an explicit
	// set of item pairs: the parallel path runs one engine per partition,
	// each seeded with a disjoint slice of the top-level pair space.
	seedPairs [][2]item
	// scratch1 and scratch2 are reused across node expansions so that
	// childItems does not allocate a fresh slice per expanded node. Both
	// are pre-sized from the trees' max fan-out at construction.
	scratch1, scratch2 []item

	// kern dispatches the batched distance kernels for the run's metric;
	// cols is the columnar scratch appendNodeItems-produced children are
	// mirrored into, colsWin the no-copy window view the plane sweep uses
	// for per-run kernel calls, dbuf the kernel output buffer and mbuf a
	// second one of the same size, for the children's d_max beside their
	// distances. All are reused across expansions: the batched distance layer
	// allocates nothing in steady state. scalarExpand forces the one-at-a-time
	// reference expansion; it is set only by the in-package differential
	// tests, which pin the two paths against each other pair for pair.
	kern         kernel.Batch
	cols         kernel.RectCols
	colsWin      kernel.RectCols
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

	reported  int
	skip      int  // results to silently re-skip after a restart
	restarted bool // the §2.2.4 restart has been used
	done      bool
	closed    bool
}

// newEngine validates options, builds the queue, and seeds it with the
// root/root pair.
func newEngine(t1, t2 SpatialIndex, opts Options, semi *semiState) (*engine, error) {
	return newEngineSeeded(t1, t2, opts, semi, nil, -1)
}

// newEngineSeeded is newEngine with an explicit seed set: instead of the
// root/root pair, the queue starts from the given item pairs. The parallel
// path uses this to hand each partition worker a disjoint slice of the
// top-level pair space (identified to the telemetry views by part); nil
// seeds mean the ordinary root/root start, with part -1.
func newEngineSeeded(t1, t2 SpatialIndex, opts Options, semi *semiState, seeds [][2]item, part int32) (*engine, error) {
	if err := opts.validate(t1, t2, semi != nil); err != nil {
		return nil, err
	}
	// An engine built outside newRunner (the in-package tests) begins its
	// own run; nothing finishes it, so it lands no query trace.
	if opts.run == nil {
		opts.run = meter.Begin(opts.sinks(), queryKind(semi))
	}
	e := &engine{
		t1:        t1,
		t2:        t2,
		opts:      opts,
		dmin:      opts.MinDist,
		dmaxCur:   opts.MaxDist,
		semi:      semi,
		sweep:     !opts.NoPlaneSweep,
		seedPairs: seeds,
		m:         opts.run.Meter(part),
		kern:      kernel.For(opts.Metric),
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
	// Pre-size the expansion scratch (row items, columnar mirror, kernel
	// outputs) from the trees' max fan-out so first expansions do not grow
	// buffers mid-join. scratch1 serves either tree; scratch2 only holds
	// second-tree entries on the simultaneous path.
	f1, f2 := indexFanout(t1), indexFanout(t2)
	fmax := f1
	if f2 > fmax {
		fmax = f2
	}
	e.scratch1 = make([]item, 0, fmax)
	e.scratch2 = make([]item, 0, f2)
	e.cols.Grow(t1.Dims(), fmax)
	e.dbuf, e.mbuf = make([]float64, fmax), make([]float64, fmax)
	if opts.MaxPairs > 0 {
		if opts.Reverse {
			e.revEst = newRevEstimator(opts.MaxPairs)
		} else {
			e.est = newEstimator(opts.MaxPairs, semi != nil)
		}
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
		e.m.Close(0)
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

// makeQueue (re)creates the priority queue per the configured kind.
func (e *engine) makeQueue() error {
	depthFirst := e.opts.TieBreak == DepthFirst
	switch e.opts.Queue {
	case QueueMemory:
		e.bq = newBlockQueue(depthFirst, e.opts.Reverse, e.m)
		e.q = e.bq
	case QueueHybrid:
		cfg := pqueue.HybridConfig{
			DT:       e.opts.HybridDT,
			Adaptive: e.opts.HybridDT == 0,
			Dir:      e.opts.HybridDir,
			Meter:    e.m,
		}
		cfg.PageSize = e.opts.queuePageSize()
		store, err := e.queueStore(cfg.PageSize)
		if err != nil {
			return err
		}
		cfg.Store = store
		hq, err := pqueue.NewHybridQueue(pairLess(depthFirst, e.opts.Reverse), func(p qpair) float64 { return p.key }, &pairCodec{dims: e.t1.Dims()}, cfg)
		if err != nil {
			return err
		}
		e.q = hq
	default:
		return fmt.Errorf("distjoin: unknown queue kind %d", e.opts.Queue)
	}
	return nil
}

// queueStore builds the disk-tier store for one (re)creation of the
// hybrid queue, honouring the QueueStore factory, HybridInMemory and
// RetryIO. A nil result lets NewHybridQueue create its own file store
// (only possible with retrying off — the retry layer needs a store to
// wrap).
func (e *engine) queueStore(pageSize int) (pager.Store, error) {
	var store pager.Store
	switch {
	case e.opts.QueueStore != nil:
		s, err := e.opts.QueueStore(pageSize)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrQueueStore, err)
		}
		store = s
	case e.opts.HybridInMemory:
		s, err := pager.NewMemStore(pageSize)
		if err != nil {
			return nil, err
		}
		store = s
	case e.opts.RetryIO.Enabled():
		s, err := pager.NewFileStore(e.opts.HybridDir, pageSize)
		if err != nil {
			return nil, err
		}
		store = s
	default:
		return nil, nil
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

// seed enqueues the initial pairs: the root/root pair by default, or the
// explicit partition seeds when seedPairs is set. Either way the root refs
// are recorded first — they stay exempt from min-fill counting.
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
	if e.seedPairs == nil {
		return e.enqueue(r1, r2)
	}
	for _, sp := range e.seedPairs {
		if err := e.enqueue(sp[0], sp[1]); err != nil {
			return err
		}
	}
	return nil
}

// restart re-runs the query without the maximum-distance estimation — the
// recovery the paper prescribes when an over-tightened D_max leaves fewer
// than K results findable (§2.2.4). For the semi-join the reported-object
// set S survives, so completed objects are not re-reported; for the plain
// join the deterministic pair order lets the engine silently skip the
// already-delivered prefix.
func (e *engine) restart() error {
	e.restarted = true
	e.m.Restart()
	e.est = nil
	e.revEst = nil
	e.dmaxCur = e.opts.MaxDist
	e.dmin = e.opts.MinDist
	if e.semi == nil {
		e.skip = e.reported
	}
	if err := e.q.Close(); err != nil {
		return err
	}
	if err := e.makeQueue(); err != nil {
		return err
	}
	return e.seed()
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

// admitVerdict is admitPair's decision for a candidate pair.
type admitVerdict uint8

const (
	// admitDrop: the pair was filtered before any distance work.
	admitDrop admitVerdict = iota
	// admitIntersection: the pair belongs to the §2.2.5 secondary-ordering
	// mode and must go through enqueueIntersection.
	admitIntersection
	// admitProceed: the pair proceeds to distance keying.
	admitProceed
)

// admitPair applies every pre-distance check of the enqueue path: the
// §2.2.5 selection criteria, equal-id omission, the intersection-ordering
// dispatch, and the semi-join Inside2 filters. Shared by the scalar and
// batched expansions so their filtering (and Filter accounting) is
// identical.
func (e *engine) admitPair(i1, i2 item) admitVerdict {
	// Spatial and attribute selection criteria (§2.2.5): discard items
	// outside their window or rejected by their predicate before any
	// distance work.
	if !e.admit(i1, 1) || !e.admit(i2, 2) {
		e.m.Filter(1)
		return admitDrop
	}
	if e.opts.OmitEqualIDs && !i1.isNode() && !i2.isNode() && i1.ref == i2.ref {
		e.m.Filter(1)
		return admitDrop
	}
	if len(e.opts.OrderIntersectionsFrom) > 0 {
		return admitIntersection
	}
	// Semi-join Inside2 filtering: drop pairs whose first object has been
	// reported before they ever reach the queue.
	if e.semi != nil && e.semi.filter >= FilterInside2 && !i1.isNode() && e.semi.done(i1.ref) {
		e.m.Filter(1)
		return admitDrop
	}
	if e.semi != nil && e.semi.symmetric && e.semi.filter >= FilterInside2 &&
		!i2.isNode() && e.semi.seen2.Has(i2.ref) {
		e.m.Filter(1)
		return admitDrop
	}
	return admitProceed
}

// enqueue computes the pair's key and bounds, applies range, estimation and
// semi-join pruning, and inserts it into the queue.
func (e *engine) enqueue(i1, i2 item) error {
	switch e.admitPair(i1, i2) {
	case admitDrop:
		return nil
	case admitIntersection:
		return e.enqueueIntersection(i1, i2)
	}
	d := e.minDist(i1, i2)
	if d > e.dmaxCur {
		e.m.Filter(1)
		return nil
	}
	return e.enqueueKeyed(i1, i2, d, noMax)
}

// enqueuePre is enqueue for a pair whose minimum distance was already
// computed by a batch kernel, as the pre-distance pre (squared, for the
// deferred L2 kernel). The distance-calculation counter is bumped exactly
// where the scalar path would have computed it — after the admit checks,
// before the range filter — and the range filter compares in the pre
// domain, deferring the pair's single Sqrt to survivors. dmax is the pair's
// d_max where the caller has computed it already, noMax otherwise.
func (e *engine) enqueuePre(i1, i2 item, pre, dmax float64) error {
	switch e.admitPair(i1, i2) {
	case admitDrop:
		return nil
	case admitIntersection:
		return e.enqueueIntersection(i1, i2)
	}
	e.countDistCalc(i1, i2)
	if e.kern.PreGreater(pre, e.dmaxCur) {
		e.m.Filter(1)
		return nil
	}
	return e.enqueueKeyed(i1, i2, e.kern.Finish(pre), dmax)
}

// noMax stands for a d_max nobody has computed yet (a d_max is never
// negative).
const noMax = -1.0

// enqueueKeyed finishes enqueueing a pair whose minimum distance d has
// passed the range filter: d_max bounds, estimation, semi-join global
// pruning, and the queue insert. dmax is maxDist(i1, i2) if the caller has
// it, noMax if not.
func (e *engine) enqueueKeyed(i1, i2 item, d, dmax float64) error {
	needMax := e.dmin > 0 || e.est != nil || e.revEst != nil || e.opts.Reverse ||
		(e.semi != nil && e.semi.filter >= FilterGlobalNodes)
	if needMax {
		if dmax == noMax {
			dmax = e.maxDist(i1, i2)
		}
		if dmax < e.dmin {
			e.m.Filter(1)
			return nil
		}
	}
	if e.semi != nil && !e.semiGlobalAdmit(i1.isNode(), i1.ref, d, dmax) {
		e.m.Filter(1)
		return nil
	}
	p := qpair{key: d, i1: i1, i2: i2}
	if e.opts.Reverse && (i1.isNode() || i2.isNode() || i1.kind == kindOBR || i2.kind == kindOBR) {
		// Farthest-first ordering keys node and OBR pairs by their upper
		// bound (§2.2.5). Exact object pairs keep their true distance.
		p.key = dmax
	}
	if e.revEst != nil {
		// Reverse estimation (§2.2.5): raise the minimum-distance bound
		// from the pairs seen so far, then prune anything that cannot be
		// among the K farthest.
		count := e.minObjects(i1, 1) * e.minObjects(i2, 2)
		e.dmin = e.revEst.observe(p, d, dmax, e.dmin, e.opts.MaxDist, count)
		if dmax < e.dmin {
			e.revEst.onPop(p) // keep M consistent with the queue
			e.m.Filter(1)
			return nil
		}
	}
	if e.est != nil {
		// An already-reported semi-join object can produce no further
		// results; letting it into M would overcount and overtighten D_max
		// (forcing more restarts), so keep it out. Nodes can still hide
		// reported objects in their subtrees — that residual overcount is
		// what the restart path recovers from.
		estimable := true
		if e.est.semi && !i1.isNode() && e.semi.seen.Has(i1.ref) {
			estimable = false
		}
		if estimable {
			count := e.minObjects(i1, 1)
			if !e.est.semi {
				count *= e.minObjects(i2, 2)
			}
			e.dmaxCur = e.est.observe(p, dmax, e.dmin, e.dmaxCur, count)
		}
	}
	return e.insert(p)
}

// admit applies the per-input selection criteria of §2.2.5: a window test
// (pruning whole subtrees whose region misses the window) and an attribute
// predicate on object ids.
func (e *engine) admit(it item, side int) bool {
	w, sel := e.opts.Window1, e.opts.Select1
	if side == 2 {
		w, sel = e.opts.Window2, e.opts.Select2
	}
	if w != nil {
		if it.isNode() {
			if !it.rect().Intersects(*w) {
				return false
			}
		} else if !w.Contains(it.rect()) {
			return false
		}
	}
	if sel != nil && !it.isNode() && !sel(rtree.ObjID(it.ref)) {
		return false
	}
	return true
}

// enqueueIntersection keys a pair for the §2.2.5 secondary-ordering mode:
// pairs that cannot intersect are discarded, and the rest are ordered by
// the distance of their (potential) intersection region from the anchor
// point. Shrinking to child regions shrinks the intersection, which can
// only increase that distance, so the ordering is consistent.
func (e *engine) enqueueIntersection(i1, i2 item) error {
	x, ok := i1.rect().Intersection(i2.rect())
	e.m.DistCalc(i1.kind != kindObj || i2.kind != kindObj)
	if !ok {
		e.m.Filter(1)
		return nil
	}
	key := e.opts.Metric.MinDistPR(e.opts.OrderIntersectionsFrom, x)
	return e.insert(qpair{key: key, i1: i1, i2: i2})
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
// meter attached the call is one step of it: the time no nested bracket
// claims is the emit phase, an emitted pair is reported, and the meter folds
// into the caller's sinks before next returns. Without one, the direct path
// takes no clock reads at all.
func (e *engine) next() (Pair, bool, error) {
	if e.m == nil {
		return e.step()
	}
	e.m.BeginStep(meter.PhaseEmit)
	p, ok, err := e.step()
	if ok {
		e.m.Emit(p.Dist, e.q.Len())
	}
	e.m.EndStep(meter.PhaseEmit)
	return p, ok, err
}

// pop dequeues inside the pop phase (the queue's disk-tier fetch brackets
// itself out of it).
func (e *engine) pop() (qpair, bool, error) {
	ph := e.m.Begin(meter.PhasePop)
	p, ok, err := e.q.Pop()
	e.m.End(ph)
	return p, ok, err
}

// insert enqueues inside the push phase (the queue's disk-tier spill
// brackets itself out of it). While the memory queue has an expansion open,
// the pair is that expansion's child e.child and is collected into its
// block; the push phase then is the one heap insert that closes the block.
func (e *engine) insert(p qpair) error {
	if e.bq != nil && e.bq.open() {
		e.bq.collect(p.key, e.child)
		return nil
	}
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
	// MaxPairs shortcut: a run canceled after its last pair was delivered,
	// but before any Next saw it was the last, ends canceled, not done.
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
	if e.opts.MaxPairs > 0 && e.reported >= e.opts.MaxPairs {
		e.done = true
		return Pair{}, false, nil
	}
	for {
		p, ok, err := e.pop()
		if err != nil {
			return Pair{}, false, e.surface(err)
		}
		if !ok {
			// The estimation of §2.2.4 may have over-tightened the maximum
			// distance (e.g. when already-reported semi-join objects inflate
			// the counts in M); the paper's remedy is to restart the query.
			if (e.est != nil || e.revEst != nil) && !e.restarted && e.opts.MaxPairs > 0 && e.reported < e.opts.MaxPairs {
				if err := e.restart(); err != nil {
					return Pair{}, false, e.surface(err)
				}
				continue
			}
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
		if e.revEst != nil {
			e.revEst.onPop(p)
			// The bound may have risen after this pair was enqueued; a
			// pair whose upper bound (its queue key, for non-object pairs)
			// falls below it is dead. Exact object pairs carry their true
			// distance, handled by the report-time range check.
			if (p.i1.isNode() || p.i2.isNode()) && p.key < e.dmin {
				e.m.Filter(1)
				continue
			}
		}
		// The effective maximum may have tightened after this pair was
		// enqueued (forward joins key node pairs by their minimum
		// distance, so the comparison is sound).
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
	if p.key < e.dmin || p.key > e.dmaxCur {
		e.m.Filter(1)
		return Pair{}, false
	}
	if e.semi != nil {
		if e.semi.done(p.i1.ref) || (e.semi.symmetric && e.semi.seen2.Has(p.i2.ref)) {
			e.m.Filter(1)
			return Pair{}, false
		}
		if e.semi.record(p.i1.ref) && e.semi.bestObj != nil {
			delete(e.semi.bestObj, p.i1.ref)
		}
		if e.semi.symmetric {
			e.semi.seen2.Add(p.i2.ref)
		}
	}
	// After a restart, the already-delivered prefix of a plain join is
	// re-derived in identical order; swallow it silently.
	if e.skip > 0 {
		e.skip--
		return Pair{}, false
	}
	if e.est != nil {
		e.est.onReport(p)
	}
	if e.revEst != nil {
		e.revEst.onReport()
	}
	e.reported++
	// The items' coordinates may be views of index nodes every cursor on
	// the index shares: the caller gets copies, both in one block of its
	// own.
	w := len(p.i1.c)
	c := concat(p.i1.c, p.i2.c)
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

// expand processes a pair with at least one node inside the expand phase
// (its enqueues bracket themselves out of it).
func (e *engine) expand(p qpair) error {
	e.m.Expand()
	ph := e.m.Begin(meter.PhaseExpand)
	err := e.expandPair(p)
	e.m.End(ph)
	return err
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
// with the Figure 5 range checks applied inside enqueue).
func (e *engine) expandSide(p qpair, side int) error {
	var t SpatialIndex
	var nodeItem, other item
	if side == 1 {
		t, nodeItem, other = e.t1, p.i1, p.i2
	} else {
		t, nodeItem, other = e.t2, p.i2, p.i1
	}
	n, err := t.Node(nodeItem.ref)
	if err != nil {
		return err
	}
	// On the memory queue the children enter as one block: opened only now
	// that the node is read, so a failed expansion leaves none half open.
	// The scalar reference expansion keeps inserting pair by pair.
	if e.bq == nil || e.scalarExpand {
		return e.enqueueChildren(n, other, side)
	}
	e.bq.begin(other, n, side, e.leafEntryKind())
	switch {
	case !e.plain():
		err = e.enqueueChildren(n, other, side)
	case e.semi == nil:
		e.collectPlain(n, other)
	default:
		e.collectSemi(n, other, side)
	}
	ph := e.m.Begin(meter.PhasePush)
	e.bq.end()
	e.m.End(ph)
	return err
}

// plain reports whether generation can decide every child in the index
// domain — from its entry index, its distance and, for the semi-join family,
// its d_max: no option in force looks at a child's item (selection, equal-id
// omission, intersection ordering) or bends the key or the bounds (either
// estimator, Reverse, a minimum distance). The join then generates through
// collectPlain, the semi-join, kNN join and clustering join through
// collectSemi; everything else builds items in enqueueChildren.
func (e *engine) plain() bool {
	o := &e.opts
	return e.est == nil && e.revEst == nil && !o.Reverse && !(e.dmin > 0) &&
		o.Window1 == nil && o.Window2 == nil && o.Select1 == nil && o.Select2 == nil &&
		!o.OmitEqualIDs && len(o.OrderIntersectionsFrom) == 0
}

// collectPlain is enqueueChildren for a plain join on the memory queue. It
// works on (entry index, pre-distance) straight from the node's coordinate
// block: per child one distance count, one range test in the pre domain, one
// Finish and one collected entry — no item, no qpair. Counters move exactly
// as enqueuePre moves them.
func (e *engine) collectPlain(n *IndexNode, other item) {
	count := len(n.Coords) / len(other.c)
	e.growOut(count)
	pres := e.dbuf[:count]
	e.kern.MinDistRows(other.rect(), n.Coords, pres)
	nodeCalc := other.isNode() || !n.Leaf
	for i, pre := range pres {
		e.m.DistCalc(nodeCalc)
		if e.kern.PreGreater(pre, e.dmaxCur) {
			e.m.Filter(1)
			continue
		}
		e.bq.collect(e.kern.Finish(pre), i)
	}
}

// collectSemi is enqueueChildren for a plain semi-join, kNN join or
// clustering join on the memory queue: collectPlain plus the filter ladder of
// §4.2.1, run on (entry index, pre-distance, pre-d_max) and on the refs the
// node holds. A child that is dropped never becomes an item; a d_max is
// computed once. The checks come in the order of enqueueChildren →
// admitPair → enqueuePre → enqueueKeyed and move the counters exactly as
// they do there.
//
// d_max is the row kernel's Metric.MaxDist whenever neither operand is a
// non-degenerate object rectangle (engine.maxDist reduces to it, bit for
// bit); between two points it is the distance itself, so the commonest
// expansion — an object against a leaf of points — makes no second kernel
// call. A rectangle object, or a leaf not known to hold points, takes the
// scalar face minimum instead, per child that needs it.
func (e *engine) collectSemi(n *IndexNode, other item, side int) {
	s, q := e.semi, other.rect()
	w := len(other.c)
	count := len(n.Coords) / w
	e.growOut(count)
	pres := e.dbuf[:count]
	e.kern.MinDistRows(q, n.Coords, pres)

	// maxs[i] is child i's d_max: the kernel's pre-distance if rowMax, else
	// the finished scalar bound — filled for every child when the Local rule
	// needs their minimum, left to the survivors otherwise.
	local := side == 2 && s.filter >= FilterLocal
	global := s.filter >= FilterGlobalNodes
	rowMax := (other.isNode() || q.IsPoint()) && (!n.Leaf || n.Points)
	maxs := e.mbuf[:count]
	switch {
	case !local && !global: // Inside2 and below ask for no d_max
	case rowMax && !other.isNode() && n.Leaf: // two points
		maxs = pres
	case rowMax:
		e.kern.MaxDistRows(q, n.Coords, maxs)
	case local:
		for i := range maxs {
			maxs[i] = e.maxDist(other, childItem(n, i, w, e.leafEntryKind()))
		}
	}
	// Local pruning (§4.2.1): nothing farther than the smallest d_max among
	// a second-input node's entries can be anybody's nearest partner. Sqrt
	// is monotone, so the minimum is taken before the one Finish.
	localBound := math.Inf(1)
	if local {
		for _, m := range maxs {
			if m < localBound {
				localBound = m
			}
		}
		if rowMax {
			localBound = e.kern.Finish(localBound)
		}
	}

	// The pair's first item is the child on side 1, other on side 2. The
	// Inside2 rule asks only about the child: with it in force, step has
	// dropped (Inside1) a pair whose object other is consumed before
	// expanding it.
	firstNode, firstRef := other.isNode(), other.ref
	if side == 1 {
		firstNode = !n.Leaf
	}
	inside2 := s.filter >= FilterInside2 && n.Leaf
	childDone := inside2 && side == 1
	childSeen2 := inside2 && side == 2 && s.symmetric
	nodeCalc := other.isNode() || !n.Leaf
	for i, pre := range pres {
		if local && e.kern.PreGreater(pre, localBound) {
			e.m.Filter(1)
			continue
		}
		if (childDone && s.done(n.Objects[i].ID)) || (childSeen2 && s.seen2.Has(n.Objects[i].ID)) {
			e.m.Filter(1)
			continue
		}
		e.m.DistCalc(nodeCalc)
		if e.kern.PreGreater(pre, e.dmaxCur) {
			e.m.Filter(1)
			continue
		}
		d := e.kern.Finish(pre)
		if global {
			var dmax float64
			switch {
			case rowMax:
				dmax = e.kern.Finish(maxs[i])
			case local:
				dmax = maxs[i]
			default:
				dmax = e.maxDist(childItem(n, i, w, e.leafEntryKind()), other)
			}
			if side == 1 {
				if n.Leaf {
					firstRef = n.Objects[i].ID
				} else {
					firstRef = n.Children[i].Ref
				}
			}
			if !e.semiGlobalAdmit(firstNode, firstRef, d, dmax) {
				e.m.Filter(1)
				continue
			}
		}
		e.bq.collect(d, i)
	}
}

// enqueueChildren pairs every entry of node n, on the given side, with
// other, and enqueues the pairs that survive the filters.
func (e *engine) enqueueChildren(n *IndexNode, other item, side int) error {
	e.scratch1 = appendNodeItems(e.scratch1[:0], n, e.leafEntryKind())
	children := e.scratch1

	// Semi-join Local pruning (§4.2.1): when expanding a second-input
	// node, any generated pair farther than the smallest d_max among the
	// entries cannot supply the nearest partner for any first-input
	// object. The values are kept: a survivor's d_max, which the Global rules
	// ask enqueueKeyed for, is the same maxDist(other, c).
	var localBound float64 = math.Inf(1)
	var dmaxs []float64
	if side == 2 && e.semi != nil && e.semi.filter >= FilterLocal && len(children) > 0 {
		e.growOut(len(children))
		dmaxs = e.mbuf[:len(children)]
		for i, c := range children {
			dmaxs[i] = e.maxDist(other, c)
			if dmaxs[i] < localBound {
				localBound = dmaxs[i]
			}
		}
	}

	if !e.scalarExpand && len(children) > 0 {
		// Batched path: one kernel call computes the distance from the
		// opposite item to every child; the localBound prune and the range
		// filter inside enqueuePre then compare the precomputed values
		// (in the pre domain, so L2 pays its Sqrt only for survivors).
		pres := e.batchMinDist(other.rect(), children)
		for i, c := range children {
			if side == 2 && localBound < math.Inf(1) {
				if e.kern.PreGreater(pres[i], localBound) {
					e.m.Filter(1)
					continue
				}
			}
			e.child = i
			dmax := noMax
			if dmaxs != nil {
				dmax = dmaxs[i]
			}
			var err error
			if side == 1 {
				err = e.enqueuePre(c, other, pres[i], dmax)
			} else {
				err = e.enqueuePre(other, c, pres[i], dmax)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	for _, c := range children {
		if side == 2 && localBound < math.Inf(1) {
			if e.opts.Metric.MinDist(other.rect(), c.rect()) > localBound {
				e.m.Filter(1)
				continue
			}
		}
		var err error
		if side == 1 {
			err = e.enqueue(c, other)
		} else {
			err = e.enqueue(other, c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fillCols mirrors items into the engine's columnar scratch and sizes the
// kernel output buffer; both are reused across expansions, so the fill
// allocates nothing in steady state.
func (e *engine) fillCols(items []item) {
	dims := 0
	if len(items) > 0 {
		dims = len(items[0].c) / 2
	}
	e.cols.Reset(dims)
	for _, it := range items {
		e.cols.Append(it.rect())
	}
	e.growOut(len(items))
}

// growOut makes room for n kernel outputs in dbuf and in mbuf: a node
// beyond the fan-out hint they were sized from grows both, once.
func (e *engine) growOut(n int) {
	if cap(e.dbuf) < n {
		e.dbuf, e.mbuf = make([]float64, n), make([]float64, n)
	}
}

// batchMinDist computes the minimum (pre-)distance from query to every
// item in one kernel call over the columnar scratch. The computation
// itself is unaccounted: callers bump the distance counters per pair, at
// the same points the scalar path counts.
func (e *engine) batchMinDist(query geom.Rect, items []item) []float64 {
	e.fillCols(items)
	out := e.dbuf[:len(items)]
	e.kern.MinDistBatch(query, &e.cols, out)
	return out
}

// appendNodeItems converts a node's entries into queue items, appending to
// buf. Callers pass a per-engine scratch buffer so steady-state expansions
// allocate nothing; the partitioner passes nil to build fresh slices. The
// items view the node's coordinate block.
func appendNodeItems(buf []item, n *IndexNode, leafKind itemKind) []item {
	count := len(n.Children)
	if n.Leaf {
		count = len(n.Objects)
	}
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
	it := item{c: n.Coords[i*w : (i+1)*w : (i+1)*w], kind: leafKind, level: -1}
	if n.Leaf {
		it.ref = n.Objects[i].ID
	} else {
		it.kind, it.level, it.ref = kindNode, int8(n.Children[i].Level), n.Children[i].Ref
	}
	return it
}

// expandBoth processes both nodes of a node/node pair simultaneously
// (§2.2.2, "Simultaneous"), pairing up the entries of the two nodes. When a
// finite maximum distance is in force, entries outside the range of the
// opposite node are filtered first and a plane sweep along axis 0 limits
// the candidate pairs (Figure 4, with the sweep extended by D_max).
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
		c1 = e.withinOf(c1, p.i2.rect())
		c2 = e.withinOf(c2, p.i1.rect())
		// Plane sweep along axis 0 over entries sorted by low edge.
		// slices.SortFunc avoids sort.Slice's reflection and per-call
		// closure allocations on this hot path.
		byLowEdge := func(a, b item) int { return cmp.Compare(a.lo0(), b.lo0()) }
		slices.SortFunc(c1, byLowEdge)
		slices.SortFunc(c2, byLowEdge)
		if !e.scalarExpand {
			return e.sweepBatch(c1, c2)
		}
		start := 0
		var pruned int64
		for _, a := range c1 {
			// Advance past entries that end before the sweep window.
			for start < len(c2) && c2[start].hi0() < a.lo0()-e.dmaxCur {
				start++
			}
			evaluated := 0
			for k := start; k < len(c2); k++ {
				b := c2[k]
				if b.lo0() > a.hi0()+e.dmaxCur {
					break // beyond the sweep window along the axis
				}
				evaluated++
				if err := e.enqueue(a, b); err != nil {
					return err
				}
			}
			pruned += int64(len(c2) - evaluated)
		}
		e.m.BatchPruned(pruned)
		return nil
	}
	if !e.scalarExpand && len(c1) > 0 && len(c2) > 0 {
		// Full cross product, batched: mirror the second node's entries into
		// the columnar scratch once, then one kernel call per first-side
		// entry covers its whole row of the pair block.
		e.fillCols(c2)
		for _, a := range c1 {
			out := e.dbuf[:len(c2)]
			e.kern.MinDistBatch(a.rect(), &e.cols, out)
			for i, b := range c2 {
				if err := e.enqueuePre(a, b, out[i], noMax); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, a := range c1 {
		for _, b := range c2 {
			if err := e.enqueue(a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepBatch is the batched form of the Figure 4 plane sweep: the candidate
// run of each first-side entry is evaluated by a single kernel call over a
// no-copy window of the columnar mirror of c2. The run is delimited against
// the current D_max, and the live bound — which estimation can only
// tighten, never relax, during a join — is re-checked per pair before
// enqueueing, so the pairs actually admitted are exactly the scalar sweep's
// (a tightened bound truncates the precomputed run the same way it breaks
// the scalar inner loop). Pairs the sweep window skips cost no distance
// computation and no queue work; they are tallied as BatchPruned, matching
// the scalar sweep's tally.
func (e *engine) sweepBatch(c1, c2 []item) error {
	if len(c1) == 0 || len(c2) == 0 {
		return nil
	}
	e.fillCols(c2)
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
		evaluated := 0
		if end > start {
			e.colsWin.Window(&e.cols, start, end)
			out := e.dbuf[:end-start]
			e.kern.MinDistBatch(a.rect(), &e.colsWin, out)
			for k := start; k < end; k++ {
				b := c2[k]
				if b.lo0() > a.hi0()+e.dmaxCur {
					break // D_max tightened mid-run; the rest is out of window
				}
				evaluated++
				if err := e.enqueuePre(a, b, out[k-start], noMax); err != nil {
					return err
				}
			}
		}
		pruned += int64(len(c2) - evaluated)
	}
	e.m.BatchPruned(pruned)
	return nil
}

// withinOf filters items to those within the effective maximum distance of
// the region spanned by the opposite node. The batched form computes every
// candidate's distance in one kernel call and compares in the pre domain.
func (e *engine) withinOf(items []item, opposite geom.Rect) []item {
	if !e.scalarExpand && len(items) > 0 {
		pres := e.batchMinDist(opposite, items)
		out := items[:0]
		for i, it := range items {
			if e.kern.PreLessEq(pres[i], e.dmaxCur) {
				out = append(out, it)
			} else {
				e.m.Filter(1)
			}
		}
		return out
	}
	out := items[:0]
	for _, it := range items {
		if e.opts.Metric.MinDist(it.rect(), opposite) <= e.dmaxCur {
			out = append(out, it)
		} else {
			e.m.Filter(1)
		}
	}
	return out
}

// close releases queue resources.
func (e *engine) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.m.Close(int64(e.reported))
	return e.q.Close()
}
