package distjoin

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"

	"distjoin/internal/meter"
)

// This file implements the parallel execution path of the distance join and
// distance semi-join. The paper's algorithms (Figures 3 and 5) are
// inherently sequential — one priority queue, one executor — but their
// queue-of-pairs design composes naturally with partition-based parallelism
// (Tsitsigkos & Mamoulis, "Parallel In-Memory Evaluation of Spatial Joins"):
// the top of the two trees is split into disjoint slices of the pair space,
// one independent incremental engine runs per slice, and because every
// engine emits ITS OWN results in distance order, a k-way merge of the
// per-partition streams reproduces the global distance order.
//
// Partitioning. Each object lives in exactly one leaf, so the subtrees
// rooted at the children of an index root cover the input disjointly.
// Pairing root children of the first input with the whole second input
// (or, when the first root's fan-out is too small, with the root children
// of the second input) therefore tiles the Cartesian product exactly once.
// Shallow trees need no special grid: when a root is a leaf its "children"
// are the objects themselves, and the same construction applies. Seed pairs
// are dealt round-robin, ordered by minimum distance, so every worker owns
// some near and some far slices of the pair space.
//
// Order-preserving merge. Worker w produces a non-decreasing (by the join
// order; non-increasing for Reverse) stream of result pairs into a bounded
// channel. The merge keeps one head per live stream in a small heap and
// only releases the overall minimum — a pair is delivered exactly when its
// distance is at or inside every live partition's current frontier, so the
// merged stream is ordered precisely like the sequential iterator's.
// Distance ties are broken by (Obj1, Obj2), which matches the sequential
// engine's queue tie-breaking for object pairs; only when two results have
// EXACTLY equal distance can the interleaving differ (the sequential engine
// may emit an equal-distance pair generated later by a node expansion after
// one popped earlier).
//
// The bounded channels double as the speculation limit: a partition whose
// frontier is far away computes at most parallelBuffer results ahead of
// what the merge has released, so a MaxPairs-bounded query does not drag
// every partition to completion.

// parallelBuffer is the per-worker result channel capacity: how far a
// partition may compute ahead of the merge frontier.
const parallelBuffer = 64

// effectiveParallelism resolves Options.Parallelism to a worker count.
func (o *Options) effectiveParallelism() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	default:
		return o.Parallelism
	}
}

// parallelizable reports whether the configuration can run on the parallel
// path. OBR mode is excluded because resolveOBR's report-immediately
// shortcut gives equal-distance results a queue-position-dependent order
// that a distance-keyed merge cannot reproduce (and Fetch/ExactDist
// callbacks would need to be concurrency-safe); the symmetric clustering
// join is excluded because a reported pair consumes objects on BOTH sides,
// coupling every partition to every other.
func parallelizable(opts *Options, semi *semiState) bool {
	if opts.effectiveParallelism() < 2 {
		return false
	}
	if opts.Fetch1 != nil || opts.Fetch2 != nil || opts.ExactDist != nil {
		return false
	}
	if semi != nil && semi.symmetric {
		return false
	}
	return true
}

// planPartitions builds up to `groups` disjoint seed sets covering the
// top-level pair space. For the semi-join only the first input may be
// partitioned (each first object must see the whole second input, which it
// does when its partner item is the second root). For the plain join the
// first root's children are paired with the whole second root when that
// already yields enough partitions, and with the second root's children
// otherwise. Returns nil when the trees are too small to split.
func planPartitions(t1, t2 SpatialIndex, opts *Options, semi bool, groups int) ([][][2]item, error) {
	top := func(t SpatialIndex) ([]item, error) {
		root, err := t.Root()
		if err != nil {
			return nil, err
		}
		n, err := t.Node(root.Ref)
		if err != nil {
			return nil, err
		}
		return appendNodeItems(nil, n, kindObj), nil
	}
	c1, err := top(t1)
	if err != nil {
		return nil, err
	}
	root2, err := t2.Root()
	if err != nil {
		return nil, err
	}
	r2 := nodeItem(root2)

	var seeds [][2]item
	if semi || len(c1) >= 2*groups {
		seeds = make([][2]item, 0, len(c1))
		for _, a := range c1 {
			seeds = append(seeds, [2]item{a, r2})
		}
	} else {
		c2, err := top(t2)
		if err != nil {
			return nil, err
		}
		seeds = make([][2]item, 0, len(c1)*len(c2))
		for _, a := range c1 {
			for _, b := range c2 {
				seeds = append(seeds, [2]item{a, b})
			}
		}
	}
	if len(seeds) < 2 {
		return nil, nil
	}
	if groups > len(seeds) {
		groups = len(seeds)
	}

	// Deal seeds round-robin in ascending minimum-distance order so each
	// worker owns a mix of near and far slices of the pair space.
	ks := make([]seedKey, len(seeds))
	for i, sp := range seeds {
		ks[i] = seedKey{seed: sp, key: opts.Metric.MinDist(sp[0].rect(), sp[1].rect())}
	}
	slices.SortFunc(ks, func(a, b seedKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if a.seed[0].ref != b.seed[0].ref {
			return cmp.Compare(a.seed[0].ref, b.seed[0].ref)
		}
		return cmp.Compare(a.seed[1].ref, b.seed[1].ref)
	})
	parts := make([][][2]item, groups)
	for i, k := range ks {
		g := i % groups
		parts[g] = append(parts[g], k.seed)
	}
	return parts, nil
}

// seedKey orders partition seeds by (minimum distance, refs) — a
// deterministic order independent of tree layout accidents.
type seedKey struct {
	seed [2]item
	key  float64
}

// parResult is one element of a worker's output stream.
type parResult struct {
	pair Pair
	err  error
}

// parWorker runs one partition engine on its own goroutine.
type parWorker struct {
	eng *engine
	out chan parResult
}

// parHead is one stream head tracked by the merge heap.
type parHead struct {
	pair Pair
	src  int
}

// parallelJoin is the runner behind a Join when Options.Parallelism
// selects the parallel path.
type parallelJoin struct {
	workers []*parWorker
	reverse bool
	// limit is the number of delivered pairs that ends the run (0: none):
	// MaxPairs, or for the semi-join family k pairs for each first object
	// when that is fewer. Each partition owns only a slice of the first
	// objects, so no partition's own count sees S_A fill; the merge does.
	limit   int
	maxDist float64
	// m is the merge's own meter (stalls, deliveries, the merge phase);
	// each partition engine has its own. nil when no sink is attached.
	m *meter.Meter

	// ctx and ctxDone are the run's cancellation signal (nil channel for
	// a nil or background context — the merge then performs no checks).
	// Each partition engine checks the same context independently, so the
	// first observer — merge or worker — wins and the rest drain through
	// the PR-3 longest-correct-prefix machinery.
	ctx     context.Context
	ctxDone <-chan struct{}

	done      chan struct{} // closed to cancel workers
	stop      sync.Once
	wg        sync.WaitGroup
	heads     []parHead // merge heap of stream heads
	started   bool
	exhausted bool  // the end of the stream has been reported to the caller
	failErr   error // first worker error; sticky, returned by every later next
	nOut      int   // pairs delivered to the caller

	closeMu  sync.Mutex
	closeErr error
}

// newParallelJoin builds the partition engines and starts the workers. The
// caller has already validated opts and established that both inputs are
// non-empty and the configuration is parallelizable. Returns (nil, nil)
// when the trees have too little top-level fan-out to split — the caller
// falls back to the sequential engine.
func newParallelJoin(t1, t2 SpatialIndex, opts Options, semiProto *semiState) (*parallelJoin, error) {
	parts, err := planPartitions(t1, t2, &opts, semiProto != nil, opts.effectiveParallelism())
	if err != nil {
		return nil, err
	}
	if len(parts) < 2 {
		return nil, nil
	}
	r := &parallelJoin{
		reverse: opts.Reverse,
		limit:   opts.MaxPairs,
		maxDist: opts.MaxDist,
		m:       opts.run.MergeMeter(len(parts)),
		done:    make(chan struct{}),
	}
	if semiProto != nil {
		n1, k := t1.NumObjects(), semiProto.k
		if k <= math.MaxInt/n1 && (r.limit == 0 || n1*k < r.limit) {
			r.limit = n1 * k
		}
	}
	if opts.Context != nil {
		r.ctx = opts.Context
		r.ctxDone = opts.Context.Done()
	}
	for pi, seeds := range parts {
		w := &parWorker{out: make(chan parResult, parallelBuffer)}
		var wsemi *semiState
		if semiProto != nil {
			wsemi = &semiState{filter: semiProto.filter, k: semiProto.k, symmetric: semiProto.symmetric}
		}
		eng, err := newEngineSeeded(t1, t2, opts, wsemi, seeds, int32(pi))
		if err != nil {
			for _, prev := range r.workers {
				prev.eng.close()
			}
			return nil, err
		}
		w.eng = eng
		r.workers = append(r.workers, w)
	}
	for _, w := range r.workers {
		r.wg.Add(1)
		go r.run(w)
	}
	return r, nil
}

// run drives one partition engine to exhaustion (or cancellation), then
// releases its resources (closing its meter, which folds into the caller's
// sinks one last time).
func (r *parallelJoin) run(w *parWorker) {
	defer r.wg.Done()
	defer func() {
		if err := w.eng.close(); err != nil {
			r.setCloseErr(err)
		}
	}()
	defer close(w.out)
	for {
		p, ok, err := w.eng.next()
		if err != nil {
			select {
			case w.out <- parResult{err: err}:
			case <-r.done:
			}
			return
		}
		if !ok {
			return
		}
		select {
		case w.out <- parResult{pair: p}:
		case <-r.done:
			return
		}
	}
}

func (r *parallelJoin) setCloseErr(err error) {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if r.closeErr == nil {
		r.closeErr = err
	}
}

// headLess orders stream heads exactly like the sequential engine orders
// reportable object pairs: by distance (inverted for Reverse), then by the
// two object references.
func (r *parallelJoin) headLess(a, b parHead) bool {
	if a.pair.Dist != b.pair.Dist {
		if r.reverse {
			return a.pair.Dist > b.pair.Dist
		}
		return a.pair.Dist < b.pair.Dist
	}
	if a.pair.Obj1 != b.pair.Obj1 {
		return a.pair.Obj1 < b.pair.Obj1
	}
	return a.pair.Obj2 < b.pair.Obj2
}

// pushHead inserts a stream head into the merge heap.
func (r *parallelJoin) pushHead(h parHead) {
	r.heads = append(r.heads, h)
	i := len(r.heads) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.headLess(r.heads[i], r.heads[parent]) {
			break
		}
		r.heads[i], r.heads[parent] = r.heads[parent], r.heads[i]
		i = parent
	}
}

// popHead removes and returns the minimum stream head.
func (r *parallelJoin) popHead() parHead {
	top := r.heads[0]
	last := len(r.heads) - 1
	r.heads[0] = r.heads[last]
	r.heads = r.heads[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < len(r.heads) && r.headLess(r.heads[l], r.heads[smallest]) {
			smallest = l
		}
		if rt < len(r.heads) && r.headLess(r.heads[rt], r.heads[smallest]) {
			smallest = rt
		}
		if smallest == i {
			return top
		}
		r.heads[i], r.heads[smallest] = r.heads[smallest], r.heads[i]
		i = smallest
	}
}

// pull blocks for the next result of worker src and pushes it onto the
// heap; a closed stream simply drops out of the merge. A pull that would
// block counts a merge stall — the progress-skew signal of partitioned
// joins.
func (r *parallelJoin) pull(src int) error {
	var res parResult
	var ok bool
	select {
	case res, ok = <-r.workers[src].out:
	default:
		r.m.Stall()
		res, ok = <-r.workers[src].out
	}
	if !ok {
		return nil
	}
	if res.err != nil {
		return res.err
	}
	r.pushHead(parHead{pair: res.pair, src: src})
	return nil
}

// next runs the merge as one step of the merge's meter: the merge phase
// includes the time the merge blocks waiting for partition workers to
// produce — the coordination overhead of the parallel path.
func (r *parallelJoin) next() (Pair, bool, error) {
	r.m.BeginStep(meter.PhaseMerge)
	p, ok, err := r.merge()
	r.m.EndStep(meter.PhaseMerge)
	return p, ok, err
}

// merge implements the order-preserving merge. A worker error cancels the
// sibling partitions, is latched, and is returned from this and every
// later call — an errored merge never reports a clean exhaustion.
func (r *parallelJoin) merge() (Pair, bool, error) {
	if r.failErr != nil {
		return Pair{}, false, r.failErr
	}
	if r.exhausted {
		return Pair{}, false, nil
	}
	// Cancellation check, per merge call: fail cancels the sibling
	// workers (close(done) unblocks any worker parked on a full out
	// channel) and waits for them to release their engines, so a canceled
	// parallel join leaves no goroutines and no queue resources behind. As
	// in engine.step it comes before the MaxPairs shortcut: a run canceled
	// after its last pair was delivered, but before any call reported the
	// end, ends canceled, not done.
	if r.ctxDone != nil {
		select {
		case <-r.ctxDone:
			return Pair{}, false, r.fail(canceledErr(r.ctx))
		default:
		}
	}
	if !r.started {
		r.started = true
		for i := range r.workers {
			if err := r.pull(i); err != nil {
				return Pair{}, false, r.fail(err)
			}
		}
	}
	if len(r.heads) == 0 || r.limit > 0 && r.nOut >= r.limit {
		r.exhausted = true
		r.finish()
		return Pair{}, false, nil
	}
	h := r.popHead()
	// The last pair needs no successor: refilling its stream could wait on a
	// partition grinding towards its own end.
	last := r.limit > 0 && r.nOut+1 >= r.limit
	if !last {
		if err := r.pull(h.src); err != nil {
			// h.pair is the minimum over every stream (each is nondecreasing),
			// so it is still safe to deliver: the caller gets the longest
			// correct prefix, and the latched error on the next call.
			r.fail(err)
		}
	}
	r.nOut++
	r.m.Deliver(h.pair.Dist)
	if last {
		r.finish() // the workers' resources go now; the end is reported by the next call
	}
	return h.pair, true, nil
}

// finish cancels outstanding work and waits for the workers to release
// their engines (queues, scratch files, meters).
func (r *parallelJoin) finish() {
	r.stop.Do(func() { close(r.done) })
	r.wg.Wait()
}

// fail is finish for the error path: cancel the siblings, wait for them
// to exit, and latch the error.
func (r *parallelJoin) fail(err error) error {
	if r.failErr == nil {
		r.failErr = err
	}
	r.finish()
	return err
}

// close implements runner.
func (r *parallelJoin) close() error {
	r.finish()
	r.m.Close(int64(r.nOut))
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	return r.closeErr
}

// reportedCount implements runner: the number of pairs delivered by the
// merge (the per-engine counts include speculative buffered results).
func (r *parallelJoin) reportedCount() int { return r.nOut }

// queueLen implements runner. The partition queues belong to running
// goroutines and cannot be inspected safely, so the parallel diagnostic is
// the number of produced-but-undelivered results: merge heads plus pairs
// buffered in the worker channels.
func (r *parallelJoin) queueLen() int {
	n := len(r.heads)
	for _, w := range r.workers {
		n += len(w.out)
	}
	return n
}

// effectiveMaxDist implements runner. Each partition tightens its own
// bound concurrently; the configured maximum is the only stable global
// value.
func (r *parallelJoin) effectiveMaxDist() float64 { return r.maxDist }
