package distjoin

import (
	"errors"

	"distjoin/internal/meter"
)

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

// newJoin validates the options and returns the iterator over a new
// engine.
//
// newJoin also begins the query's meter (nil when no view is attached):
// everything up to the engine being ready to pop (queue construction,
// seeding) is the per-query trace's plan span, and a constructor failure
// closes the meter at once, its trace error-annotated. On success the
// engine's meter is closed by the iterator's Close.
func newJoin(t1, t2 SpatialIndex, opts Options, semi *semiState) (*Join, error) {
	if err := opts.validate(t1, t2, semi != nil); err != nil {
		return nil, err
	}
	sinks := meter.Sinks{Counters: opts.Counters, Obs: opts.Obs, Profile: opts.Profile, Tracer: opts.Tracer, QueryID: opts.QueryID}
	m := meter.Begin(sinks, queryKind(semi))
	e, err := newEngine(t1, t2, opts, semi, m)
	m.PlanDone()
	if err != nil {
		m.Close(err)
		return nil, err
	}
	return &Join{e: e}, nil
}

// ErrIteratorClosed is returned by Next after Close.
var ErrIteratorClosed = errors.New("distjoin: iterator is closed")

// ErrQueueStore wraps every failure of the Options.QueueStore factory, so
// callers can tell a broken storage backend from invalid join options.
var ErrQueueStore = errors.New("distjoin: QueueStore factory")

// Join is the iterator every operator returns: the distance join, the
// distance semi-join (§2.3), the k-nearest-neighbours join and the
// clustering join all report their pairs in ascending order of distance
// (descending when Options.Reverse is set), one pair per Next call,
// computing only as much of the operation as the caller consumes.
//
// Join is a terminal-state machine over its engine: it latches the first
// error the engine surfaces (every later Next returns the same error, and
// Err exposes it), makes Close idempotent, and rejects Next after Close. A
// failed stream is therefore always a clean prefix of the correct result
// followed by a sticky error — never a silently truncated success.
type Join struct {
	e      *engine
	err    error
	closed bool
}

// NewJoinIndexes creates an incremental distance join over any two
// hierarchical spatial indexes implementing SpatialIndex — the paper's
// generality claim (§2.2): the same algorithm drives R-trees (WrapRTree),
// quadtrees (WrapQuadtree) and other hierarchical decompositions, in any
// combination. The indexes must have equal dimensionality and must not be
// modified while the join is in progress.
func NewJoinIndexes(t1, t2 SpatialIndex, opts Options) (*Join, error) {
	return newJoin(t1, t2, opts, nil)
}

// NewSemiJoinIndexes creates an incremental distance semi-join (§2.3): for
// each first-input object, its nearest second-input object, reported in
// ascending order of distance. filter selects the §4.2.1 filtering
// strategy.
func NewSemiJoinIndexes(t1, t2 SpatialIndex, filter SemiFilter, opts Options) (*Join, error) {
	return NewKNearestJoinIndexes(t1, t2, 1, filter, opts)
}

// NewKNearestJoinIndexes creates an incremental k-nearest-neighbours join:
// for each first-input object, its k nearest second-input objects, reported
// in ascending order of distance (the "all nearest neighbors" variation of
// §1, generalized to k). k = 1 is the distance semi-join. For k > 1 the
// d_max-based filters (Local and up) are degraded to Inside2, since their
// bounds only promise one partner.
func NewKNearestJoinIndexes(t1, t2 SpatialIndex, k int, filter SemiFilter, opts Options) (*Join, error) {
	if filter < FilterOutside || filter > FilterGlobalAll {
		return nil, errInvalidFilter(filter)
	}
	if k < 1 {
		return nil, errors.New("distjoin: k must be at least 1")
	}
	return newJoin(t1, t2, opts, &semiState{filter: filter, k: k})
}

// NewClusteringJoinIndexes creates the symmetric "clustering join" of [32]
// that the paper's introduction contrasts with the distance semi-join (§1):
// pairs are reported in ascending distance order, and once (o1, o2) is
// reported NEITHER object appears in any later pair — a greedy mutual
// pairing of the two inputs. The result has min(|A|, |B|) pairs. The
// d_max-based filters assume only the first side is consumed, so the filter
// is capped at Inside2 internally.
func NewClusteringJoinIndexes(t1, t2 SpatialIndex, filter SemiFilter, opts Options) (*Join, error) {
	if filter < FilterOutside || filter > FilterGlobalAll {
		return nil, errInvalidFilter(filter)
	}
	return newJoin(t1, t2, opts, &semiState{filter: filter, k: 1, symmetric: true})
}

// Next returns the next pair. ok is false when the operation is exhausted
// (every pair, or for the semi-join family every first-input object, has
// been reported), the MaxPairs bound is reached, or no partner exists
// within the distance range. Once Next returns an error the iterator is in
// a terminal state: the pairs already delivered are a correct prefix of
// the result, every further Next returns the same error, and Err reports
// it. After Close, Next returns ErrIteratorClosed.
func (j *Join) Next() (p Pair, ok bool, err error) {
	if j.closed {
		return Pair{}, false, ErrIteratorClosed
	}
	if j.err != nil {
		return Pair{}, false, j.err
	}
	p, ok, err = j.e.next()
	if err != nil {
		j.err = err
		// Count the query as canceled exactly once, at the moment the
		// cancellation latches as the terminal error (Stats.Cancellations,
		// surfaced as distjoin_queries_canceled_total on /metrics).
		if errors.Is(err, ErrCanceled) {
			j.e.m.Canceled()
		}
		return Pair{}, false, err
	}
	return p, ok, nil
}

// Err returns the terminal error of the iterator, if any: the first error
// Next surfaced (storage failure, checksum mismatch, ...) or Close's own
// resource release returned. Close by itself is not an error state: Err
// stays nil on a clean exhaustion and after a clean Close.
func (j *Join) Err() error { return j.err }

// Reported returns the number of pairs delivered so far.
func (j *Join) Reported() int { return j.e.reported }

// QueueLen returns the current priority-queue size in pairs, on either
// queue (the memory queue's heap holds fewer elements than that: one per
// expansion). Diagnostic.
func (j *Join) QueueLen() int { return j.e.q.Len() }

// EffectiveMaxDist returns the maximum distance currently in force: the
// configured maximum, possibly tightened by the §2.2.4 estimation.
func (j *Join) EffectiveMaxDist() float64 { return j.e.dmaxCur }

// Close releases queue resources (the hybrid queue's scratch file). Close
// is idempotent; after it, Next returns ErrIteratorClosed.
func (j *Join) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.e.close()
	if err != nil && j.err == nil {
		j.err = err
	}
	// The engine has released its resources: close its meter, completing
	// the query trace with the latched terminal error (nil on a clean
	// close).
	j.e.m.Close(j.err)
	return err
}

// Abort closes the iterator like Close but latches cause as its terminal
// error when no Next call has surfaced one, so the query trace lands
// error-annotated. For callers (e.g. a server) that tear an iterator down
// after a failure the engine itself never observed, such as a recovered
// panic. An error already latched by Next wins, a nil cause makes Abort a
// plain Close, and on a closed iterator Abort, like Close, does nothing.
func (j *Join) Abort(cause error) error {
	if j.closed {
		return nil
	}
	if j.err == nil && cause != nil {
		j.err = cause
	}
	return j.Close()
}

func errInvalidFilter(f SemiFilter) error {
	return &filterError{f: f}
}

type filterError struct{ f SemiFilter }

func (e *filterError) Error() string {
	return "distjoin: invalid semi-join filter " + e.f.String()
}
