package distjoin

import (
	"errors"

	"distjoin/internal/meter"
	"distjoin/internal/rtree"
)

// runner is the execution strategy behind the public iterators: the
// sequential incremental engine, or the partitioned parallel merge when
// Options.Parallelism selects it and the configuration is sound for it.
type runner interface {
	next() (Pair, bool, error)
	close() error
	reportedCount() int
	queueLen() int
	effectiveMaxDist() float64
	didRestart() bool
}

// runner implementation on the sequential engine.
func (e *engine) reportedCount() int        { return e.reported }
func (e *engine) queueLen() int             { return e.q.Len() }
func (e *engine) effectiveMaxDist() float64 { return e.dmaxCur }
func (e *engine) didRestart() bool          { return e.restarted }

// queryKind names the operation for the query trace.
func queryKind(semi *semiState) string {
	switch {
	case semi == nil:
		return "join"
	case semi.symmetric:
		return "clustering"
	case semi.k > 1:
		return "knn"
	}
	return "semijoin"
}

// newRunner validates the options and picks the execution strategy. The
// parallel path is chosen when the effective parallelism exceeds one, the
// configuration is parallelizable (see parallelizable), both inputs are
// non-empty, and the trees have enough top-level fan-out to partition;
// every other case falls back to the sequential engine, transparently.
//
// newRunner also begins the run's telemetry (nil when no view is attached):
// everything up to the engines being ready to pop (validation, partition
// planning, queue construction, seeding) is the per-query trace's plan
// span, and a constructor failure finishes the trace immediately,
// error-annotated. On success the returned run is finished by the
// iterator's Close.
func newRunner(t1, t2 SpatialIndex, opts Options, semi *semiState) (iterState, error) {
	if err := opts.validate(t1, t2, semi != nil); err != nil {
		return iterState{}, err
	}
	opts.run = meter.Begin(opts.sinks(), queryKind(semi))
	r, err := buildRunner(t1, t2, opts, semi)
	opts.run.PlanDone()
	if err != nil {
		opts.run.Finish(err)
		return iterState{}, err
	}
	return iterState{r: r, run: opts.run}, nil
}

// buildRunner constructs the execution strategy on validated options.
func buildRunner(t1, t2 SpatialIndex, opts Options, semi *semiState) (runner, error) {
	if parallelizable(&opts, semi) && t1.NumObjects() > 0 && t2.NumObjects() > 0 {
		r, err := newParallelJoin(t1, t2, opts, semi)
		if err != nil {
			return nil, err
		}
		if r != nil {
			return r, nil
		}
	}
	return newEngine(t1, t2, opts, semi)
}

// ErrIteratorClosed is returned by Next after Close.
var ErrIteratorClosed = errors.New("distjoin: iterator is closed")

// ErrQueueStore wraps every failure of the Options.QueueStore factory, so
// callers can tell a broken storage backend from invalid join options.
var ErrQueueStore = errors.New("distjoin: QueueStore factory")

// iterState is the terminal-state machine shared by Join and SemiJoin: it
// latches the first error a runner surfaces (every later Next returns the
// same error, and Err exposes it), makes Close idempotent, and rejects
// Next after Close. A failed stream is therefore always a clean prefix of
// the correct result followed by a sticky error — never a silently
// truncated success.
type iterState struct {
	r      runner
	run    *meter.Run // nil unless a telemetry view was attached
	err    error
	closed bool
}

func (s *iterState) next() (Pair, bool, error) {
	if s.closed {
		return Pair{}, false, ErrIteratorClosed
	}
	if s.err != nil {
		return Pair{}, false, s.err
	}
	p, ok, err := s.r.next()
	if err != nil {
		s.err = err
		// Count the query as canceled exactly once, at the moment the
		// cancellation latches as the terminal error (Stats.Cancellations,
		// surfaced as distjoin_queries_canceled_total on /metrics).
		if errors.Is(err, ErrCanceled) {
			s.run.Canceled()
		}
		return Pair{}, false, err
	}
	return p, ok, nil
}

func (s *iterState) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.r.close()
	if err != nil && s.err == nil {
		s.err = err
	}
	// The runner has released every engine, so every meter has closed:
	// complete the query trace with the latched terminal error (nil on a
	// clean close).
	s.run.Finish(s.err)
	return err
}

// abort closes the iterator with cause latched as its terminal error, so
// the query trace lands error-annotated even when no Next call surfaced
// the failure (e.g. a panic that unwound past the iterator's caller). An
// error already latched by Next wins; a nil cause makes abort a plain
// close.
func (s *iterState) abort(cause error) error {
	if s.err == nil && cause != nil {
		s.err = cause
	}
	return s.close()
}

// lastErr returns the latched terminal error, if any. Close by itself is
// not an error state: only a failure surfaced by Next or by Close's own
// resource release is reported.
func (s *iterState) lastErr() error { return s.err }

// Join is an incremental distance join iterator: it reports the pairs of
// the Cartesian product of the two indexed inputs in ascending order of
// distance (descending when Options.Reverse is set), one pair per Next
// call, computing only as much of the join as the caller consumes.
type Join struct {
	s iterState
}

// NewJoin creates an incremental distance join of two R-trees. The trees
// must have equal dimensionality and must not be modified while the join is
// in progress.
func NewJoin(t1, t2 *rtree.Tree, opts Options) (*Join, error) {
	return NewJoinIndexes(wrapTree(t1), wrapTree(t2), opts)
}

// NewJoinIndexes creates an incremental distance join over any two
// hierarchical spatial indexes implementing SpatialIndex — the paper's
// generality claim (§2.2): the same algorithm drives R-trees, quadtrees and
// other hierarchical decompositions, in any combination.
func NewJoinIndexes(t1, t2 SpatialIndex, opts Options) (*Join, error) {
	s, err := newRunner(t1, t2, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Join{s: s}, nil
}

// wrapTree adapts an R-tree, preserving nil for validation.
func wrapTree(t *rtree.Tree) SpatialIndex {
	if t == nil {
		return nil
	}
	return WrapRTree(t)
}

// Next returns the next closest pair. ok is false when the join is
// exhausted (or the MaxPairs bound is reached). Once Next returns an
// error the iterator is in a terminal state: the pairs already delivered
// are a correct prefix of the result, every further Next returns the same
// error, and Err reports it. After Close, Next returns ErrIteratorClosed.
func (j *Join) Next() (p Pair, ok bool, err error) { return j.s.next() }

// Err returns the terminal error of the iterator, if any: the first error
// Next surfaced (storage failure, checksum mismatch, failed partition
// worker, ...). It stays nil on a clean exhaustion and after a clean
// Close.
func (j *Join) Err() error { return j.s.lastErr() }

// Reported returns the number of pairs delivered so far.
func (j *Join) Reported() int { return j.s.r.reportedCount() }

// QueueLen returns the current priority-queue size in pairs, on either
// queue (the memory queue's heap holds fewer elements than that: one per
// expansion). Diagnostic. On the parallel path it is the number of
// merged-but-undelivered result pairs rather than a priority-queue size
// (the partition queues belong to running workers).
func (j *Join) QueueLen() int { return j.s.r.queueLen() }

// EffectiveMaxDist returns the maximum distance currently in force: the
// configured maximum, possibly tightened by the §2.2.4 estimation. On the
// parallel path each partition tightens its own bound, so this reports the
// configured maximum.
func (j *Join) EffectiveMaxDist() float64 { return j.s.r.effectiveMaxDist() }

// Restarted reports whether the engine used the §2.2.4 restart (the
// estimation had over-tightened the maximum distance); on the parallel
// path, whether any partition did. Diagnostic.
func (j *Join) Restarted() bool { return j.s.r.didRestart() }

// Close releases queue resources (the hybrid queue's scratch file) and, on
// the parallel path, cancels the partition workers and waits for them to
// exit. Close is idempotent; after it, Next returns ErrIteratorClosed.
func (j *Join) Close() error { return j.s.close() }

// Abort closes the iterator like Close but latches cause as its terminal
// error when no Next call has surfaced one, annotating the query trace.
// For callers (e.g. a server) that tear an iterator down after a failure
// the engine itself never observed, such as a recovered panic.
func (j *Join) Abort(cause error) error { return j.s.abort(cause) }

// SemiJoin is an incremental distance semi-join iterator (§2.3): for each
// first-input object, its nearest second-input object, reported in
// ascending order of distance.
type SemiJoin struct {
	s iterState
}

// NewSemiJoin creates an incremental distance semi-join of two R-trees
// using the given filtering strategy (§4.2.1).
func NewSemiJoin(t1, t2 *rtree.Tree, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return NewSemiJoinIndexes(wrapTree(t1), wrapTree(t2), filter, opts)
}

// NewSemiJoinIndexes creates an incremental distance semi-join over any two
// SpatialIndex implementations.
func NewSemiJoinIndexes(t1, t2 SpatialIndex, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return NewKNearestJoinIndexes(t1, t2, 1, filter, opts)
}

// NewKNearestJoin creates an incremental k-nearest-neighbours join of two
// R-trees: for each first-input object, its k nearest second-input objects,
// reported in ascending order of distance (the "all nearest neighbors"
// variation of §1, generalized to k). k = 1 is the distance semi-join.
func NewKNearestJoin(t1, t2 *rtree.Tree, k int, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return NewKNearestJoinIndexes(wrapTree(t1), wrapTree(t2), k, filter, opts)
}

// NewClusteringJoin creates the symmetric "clustering join" of [32] that
// the paper's introduction contrasts with the distance semi-join (§1):
// pairs are reported in ascending distance order, and once (o1, o2) is
// reported NEITHER object appears in any later pair — a greedy mutual
// pairing of the two inputs. The result has min(|A|, |B|) pairs. The
// d_max-based filters assume only the first side is consumed, so the filter
// is capped at Inside2 internally.
func NewClusteringJoin(t1, t2 *rtree.Tree, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return NewClusteringJoinIndexes(wrapTree(t1), wrapTree(t2), filter, opts)
}

// NewClusteringJoinIndexes is NewClusteringJoin over arbitrary SpatialIndex
// implementations.
func NewClusteringJoinIndexes(t1, t2 SpatialIndex, filter SemiFilter, opts Options) (*SemiJoin, error) {
	if filter < FilterOutside || filter > FilterGlobalAll {
		return nil, errInvalidFilter(filter)
	}
	s, err := newRunner(t1, t2, opts, &semiState{filter: filter, k: 1, symmetric: true})
	if err != nil {
		return nil, err
	}
	return &SemiJoin{s: s}, nil
}

// NewKNearestJoinIndexes is NewKNearestJoin over arbitrary SpatialIndex
// implementations. For k > 1 the d_max-based filters (Local and up) are
// degraded to Inside2, since their bounds only promise one partner.
func NewKNearestJoinIndexes(t1, t2 SpatialIndex, k int, filter SemiFilter, opts Options) (*SemiJoin, error) {
	if filter < FilterOutside || filter > FilterGlobalAll {
		return nil, errInvalidFilter(filter)
	}
	if k < 1 {
		return nil, errors.New("distjoin: k must be at least 1")
	}
	s, err := newRunner(t1, t2, opts, &semiState{filter: filter, k: k})
	if err != nil {
		return nil, err
	}
	return &SemiJoin{s: s}, nil
}

// Next returns the next semi-join pair. ok is false when every first-input
// object has been reported (or MaxPairs was reached, or no partner exists
// within the distance range). Error semantics match Join.Next: the first
// error is terminal and sticky, and Next after Close returns
// ErrIteratorClosed.
func (s *SemiJoin) Next() (p Pair, ok bool, err error) { return s.s.next() }

// Err returns the terminal error of the iterator, if any; see Join.Err.
func (s *SemiJoin) Err() error { return s.s.lastErr() }

// Reported returns the number of pairs delivered so far.
func (s *SemiJoin) Reported() int { return s.s.r.reportedCount() }

// QueueLen returns the current priority-queue size in pairs (diagnostic);
// see Join.QueueLen.
func (s *SemiJoin) QueueLen() int { return s.s.r.queueLen() }

// Restarted reports whether the engine used the §2.2.4 restart (any
// partition, on the parallel path). Diagnostic.
func (s *SemiJoin) Restarted() bool { return s.s.r.didRestart() }

// Close releases queue resources. Idempotent; see Join.Close.
func (s *SemiJoin) Close() error { return s.s.close() }

// Abort closes the iterator like Close but latches cause as its terminal
// error when no Next call has surfaced one, annotating the query trace.
func (s *SemiJoin) Abort(cause error) error { return s.s.abort(cause) }

func errInvalidFilter(f SemiFilter) error {
	return &filterError{f: f}
}

type filterError struct{ f SemiFilter }

func (e *filterError) Error() string {
	return "distjoin: invalid semi-join filter " + e.f.String()
}
