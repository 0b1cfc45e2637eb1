package distjoin

import (
	"context"
	"errors"
	"fmt"
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/meter"
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
)

// Traversal selects how node/node pairs are expanded (§2.2.2, §4.1.1).
type Traversal int

const (
	// TraverseEven processes the node at the shallower level of a
	// node/node pair, keeping the descent into both trees balanced — the
	// variant the paper found best overall.
	TraverseEven Traversal = iota
	// TraverseBasic always processes item 1 of a node/node pair (the basic
	// algorithm of Figure 3).
	TraverseBasic
	// TraverseSimultaneous processes both nodes of a node/node pair at
	// once, pairing up their entries with an optional plane sweep
	// (Figure 4).
	TraverseSimultaneous
)

func (t Traversal) String() string {
	switch t {
	case TraverseEven:
		return "Even"
	case TraverseBasic:
		return "Basic"
	case TraverseSimultaneous:
		return "Simultaneous"
	}
	return fmt.Sprintf("Traversal(%d)", int(t))
}

// TieBreak selects the ordering of equal-distance pairs (§2.2.2).
type TieBreak int

const (
	// DepthFirst gives pairs with deeper nodes priority, driving the
	// traversal toward leaves — the variant the paper found best.
	DepthFirst TieBreak = iota
	// BreadthFirst gives pairs with shallower nodes priority.
	BreadthFirst
)

func (t TieBreak) String() string {
	if t == BreadthFirst {
		return "BreadthFirst"
	}
	return "DepthFirst"
}

// QueueKind selects the priority-queue implementation (§3.2, Figure 8).
type QueueKind int

const (
	// QueueMemory keeps the whole queue in memory: a 4-ary heap of 16-byte
	// heads, one per node expansion — the expansion's nearest remaining
	// child — with the child's siblings waiting unordered in a block.
	QueueMemory QueueKind = iota
	// QueueHybrid is the paper's three-tier memory/disk queue over the same
	// heap: an expansion's children of the current D_T-wide bucket wait in
	// a list as one block, and those beyond spill to disk as one record per
	// radix class — the opposite item once, then each child's key, ref,
	// level and rectangle.
	QueueHybrid
)

func (q QueueKind) String() string {
	if q == QueueHybrid {
		return "Hybrid"
	}
	return "Memory"
}

// Options configures a distance join or distance semi-join.
type Options struct {
	// Context cancels the run: once it is canceled (or its deadline
	// expires), Next returns an error wrapping ErrCanceled — sticky, like
	// every iterator error — after delivering a correct ordered prefix of
	// the result. The engine re-checks the context at the top of every
	// Next call and every cancelCheckEvery queue pops inside it, and retry
	// backoff sleeps (Options.RetryIO) are cut short, so observed cancel
	// latency is bounded by a constant amount of engine work.
	//
	// A nil Context behaves as context.Background(): never canceled, and
	// provably free — the engine then skips every check (no channel
	// reads, no branches beyond one nil test), leaving the hot path
	// byte-identical to a build without cancellation.
	Context context.Context
	// Metric is the distance metric; geom.Euclidean when nil (the paper's
	// choice).
	Metric geom.Metric
	// MinDist and MaxDist restrict reported pairs to a distance range
	// (§2.2.3). Defaults: 0 and +Inf. Node pairs that cannot produce a
	// pair inside the range are pruned with the MINMAXDIST machinery.
	MinDist float64
	MaxDist float64
	// MaxPairs, when positive, bounds the number of result pairs
	// (STOP AFTER) and activates the maximum-distance estimation of
	// §2.2.4, which tightens the effective maximum distance as pairs are
	// enqueued — except with ExactDist, whose distances no rectangle
	// bounds, and in the clustering join, which the bound only stops.
	MaxPairs int
	// Traversal is the node/node expansion policy; default TraverseEven.
	Traversal Traversal
	// TieBreak orders equal-distance pairs; default DepthFirst.
	TieBreak TieBreak
	// Reverse reports pairs farthest-first (§2.2.5). Requires the memory
	// queue (the hybrid tiers assume ascending pops). Combined with
	// MaxPairs, the plain join applies §2.2.5's minimum-distance
	// estimation — the reverse counterpart of §2.2.4; the reverse
	// semi-join does not support MaxPairs.
	Reverse bool
	// Queue selects the queue implementation; default QueueMemory. Either
	// way the queue's size — QueueLen, Stats.MaxQueueSize — is in pairs;
	// Stats.MaxQueueElements is what the queue's heap held for them.
	Queue QueueKind
	// HybridDT is the distance increment D_T of the hybrid queue; when 0
	// the queue chooses it adaptively from the first insertions. D_T sizes
	// the two memory tiers — the heap holds the pairs closer than the
	// current D_T-wide bucket, the list that bucket — and nothing else: the
	// disk tier writes one page per page-full of spilled pairs and keeps
	// one page per radix class in memory however many buckets it spans, so
	// a small D_T costs memory-tier refills, not I/O.
	HybridDT float64
	// HybridDir is where the hybrid queue's scratch file lives (empty:
	// system temp) unless QueueStore supplies the store.
	HybridDir string
	// NoPlaneSweep disables the plane sweep TraverseSimultaneous applies
	// when a finite maximum distance is in force (Figure 4).
	NoPlaneSweep bool
	// Window1 and Window2 restrict each input to objects lying inside a
	// rectangle — the spatial selection criterion of §2.2.5, folded into
	// the join so that index subtrees outside the window are pruned
	// wholesale.
	Window1, Window2 *geom.Rect
	// Select1 and Select2 filter objects by id (an attribute predicate,
	// e.g. "population > 5 million" from §5). Only leaf entries are
	// tested; nodes cannot be pruned by an opaque predicate.
	//
	// Restricting the SECOND input (Window2, Select2, or MinDist > 0)
	// invalidates the d_max guarantees behind the Local/GlobalNodes/
	// GlobalAll semi-join filters, so those are transparently degraded to
	// Inside2 in that case.
	Select1, Select2 func(rtree.ObjID) bool
	// DeferLeaves delays expanding a leaf of a node/node pair until the
	// other side has also reached a leaf, then processes both leaves
	// simultaneously — the strategy §2.2.2 recommends for structures
	// whose leaves lack bounding rectangles, where it reduces repeated
	// object accesses. Applies to Even and Basic traversal (Simultaneous
	// already processes both sides).
	DeferLeaves bool
	// OmitEqualIDs drops pairs whose two object ids are equal — the
	// natural setting for self joins, turning the k-nearest-neighbours
	// join of a dataset with itself into the classic all-nearest-
	// neighbours computation (§1). Like other second-input restrictions
	// it degrades the d_max-based semi-join filters to Inside2.
	OmitEqualIDs bool
	// OrderIntersectionsFrom switches the join to the §2.2.5 secondary-
	// ordering mode: only INTERSECTING pairs are reported, ordered by the
	// distance of their intersection region from this point (the paper's
	// "intersections of roads and rivers in order of distance from a given
	// house"). Incompatible with Reverse, MaxPairs, distance ranges and
	// the semi-join.
	OrderIntersectionsFrom geom.Point
	// Fetch1 and Fetch2 switch the engine to bounding-rectangle mode
	// (Figure 3's OBR path): leaf entries are treated as minimal bounding
	// rectangles and exact geometry is fetched through these callbacks
	// when an OBR/OBR pair reaches the queue head.
	Fetch1, Fetch2 func(rtree.ObjID) (geom.Rect, error)
	// ExactDist also switches the engine to bounding-rectangle mode and
	// supplies the true object distance for a candidate pair — the hook
	// for extended object types such as line segments (the paper's §3.1
	// "future study"). It must be consistent with the index: the returned
	// distance may never be smaller than the MINDIST of the two objects'
	// bounding rectangles. When both ExactDist and Fetch callbacks are
	// set, the fetched geometry is reported in the result pairs while
	// ExactDist provides the distance.
	ExactDist func(o1, o2 rtree.ObjID) (float64, error)
	// Counters, Obs, Profile and Tracer are the four telemetry views. The
	// engine never writes them on the per-pair path: it records into its
	// own single-writer meter (internal/meter) and folds it into whichever
	// views are attached at every Next return and at Close, so a reader
	// between two Next calls sees everything done so far. With all four nil
	// no meter exists: the per-pair path performs no clock reads and no
	// allocations.
	//
	// Counters receives the Table 1 measures (the work counts).
	Counters *meter.Counters
	// Obs receives live observability, the /metrics aggregate: the
	// inter-pair delay and pop-to-emit latency histograms; the sampled
	// gauges; and the work counts behind its counter families (see
	// internal/obs).
	Obs *meter.Recorder
	// Profile receives span accounting for per-join query profiles: wall
	// time attributed exclusively to the engine phases (expand, queue
	// push/pop, disk-tier spill/fetch, emit) plus the disk tier's
	// physical I/O time.
	Profile *meter.Spans
	// Parallelism is ignored: every join runs on one engine.
	//
	// Deprecated: ignored. The partitioned parallel path it once selected
	// did not pay for itself and was removed; the field stays so existing
	// callers that set it still compile and run unchanged.
	Parallelism int
	// QueueStore supplies the hybrid queue's disk-tier page store. It is a
	// factory, not a store: each engine owns and closes its own store. When
	// set it
	// overrides HybridDir. Useful for injecting instrumented or
	// fault-injecting stores, or an in-memory one (NewMemPageStore), which
	// keeps the tier mechanics and spill accounting while making tests
	// hermetic.
	QueueStore func(pageSize int) (pager.Store, error)
	// RetryIO retries transient disk-tier I/O failures (errors wrapping
	// pager.ErrTransient) with bounded exponential backoff. The zero value
	// disables retrying. Retries are counted as IORetries / IOFaults.
	RetryIO pager.RetryPolicy
	// QueuePageSize is the page size in bytes of the hybrid queue's disk
	// tier (default 4096). Larger pages batch more spilled pairs per I/O;
	// the tier holds one page in memory per populated radix class (a dozen
	// at most in practice).
	QueuePageSize int
	// Tracer attaches per-query lifecycle tracing (see internal/qtrace):
	// each join, semi-join and kNN run gets a query ID and a hierarchical span
	// tree (plan → engine phases → queue disk-tier I/O), landed in the
	// tracer's flight recorder — and slow-query log, when it qualifies — on
	// iterator Close. The trace's resources are the run's own engine's
	// counts; its node I/O is what the Counters view — else the Obs
	// recorder's counts — observed while the query was open.
	Tracer *meter.Tracer
	// QueryID overrides the Tracer-assigned query ID ("q0000042") for this
	// run. Ignored when Tracer is nil.
	QueryID string
}

// defaultQueuePageSize is the hybrid queue's disk-tier page size when
// Options.QueuePageSize is unset.
const defaultQueuePageSize = 4096

// queuePageSize returns the effective hybrid-queue page size.
func (o *Options) queuePageSize() int {
	if o.QueuePageSize > 0 {
		return o.QueuePageSize
	}
	return defaultQueuePageSize
}

// SemiFilter is the semi-join filtering ladder of §4.2.1, ordered by
// increasing aggressiveness; each level includes all previous filtering.
type SemiFilter int

const (
	// FilterOutside filters already-reported first objects only at report
	// time, outside the core algorithm.
	FilterOutside SemiFilter = iota
	// FilterInside1 additionally discards dequeued pairs whose first item
	// is an already-reported object.
	FilterInside1
	// FilterInside2 additionally discards such pairs before they are
	// enqueued while processing nodes.
	FilterInside2
	// FilterLocal additionally prunes, within each processed node of the
	// second input, generated pairs whose distance exceeds the smallest
	// d_max among the node's entries.
	FilterLocal
	// FilterGlobalNodes additionally maintains the smallest d_max seen
	// globally for every first-input node and prunes against it.
	FilterGlobalNodes
	// FilterGlobalAll additionally maintains the smallest d_max for every
	// first-input object.
	FilterGlobalAll
)

func (f SemiFilter) String() string {
	switch f {
	case FilterOutside:
		return "Outside"
	case FilterInside1:
		return "Inside1"
	case FilterInside2:
		return "Inside2"
	case FilterLocal:
		return "Local"
	case FilterGlobalNodes:
		return "GlobalNodes"
	case FilterGlobalAll:
		return "GlobalAll"
	}
	return fmt.Sprintf("SemiFilter(%d)", int(f))
}

// validate normalizes and checks options against the two indexes.
func (o *Options) validate(t1, t2 SpatialIndex, semi bool) error {
	if t1 == nil || t2 == nil {
		return errors.New("distjoin: both indexes are required")
	}
	if t1.Dims() != t2.Dims() {
		return fmt.Errorf("distjoin: dimension mismatch: %d vs %d", t1.Dims(), t2.Dims())
	}
	if o.Metric == nil {
		o.Metric = geom.Euclidean
	}
	if o.MaxDist == 0 {
		o.MaxDist = math.Inf(1)
	}
	// Negated comparisons: a NaN bound fails them too.
	if !(o.MinDist >= 0) || !(o.MaxDist >= o.MinDist) {
		return fmt.Errorf("distjoin: invalid distance range [%g, %g]", o.MinDist, o.MaxDist)
	}
	if !(o.HybridDT >= 0) {
		return fmt.Errorf("distjoin: HybridDT %g must be a non-negative number", o.HybridDT)
	}
	if o.MaxPairs < 0 {
		return errors.New("distjoin: MaxPairs must be non-negative")
	}
	if o.QueuePageSize < 0 {
		return errors.New("distjoin: QueuePageSize must be non-negative")
	}
	if (o.Fetch1 == nil) != (o.Fetch2 == nil) {
		return errors.New("distjoin: Fetch1 and Fetch2 must be set together")
	}
	if o.ExactDist != nil && o.Reverse {
		return errors.New("distjoin: ExactDist does not support reverse ordering")
	}
	if o.Reverse {
		if o.Queue == QueueHybrid {
			return errors.New("distjoin: reverse joins require the memory queue")
		}
		if o.MaxPairs > 0 && semi {
			return errors.New("distjoin: reverse semi-joins do not support MaxPairs estimation")
		}
	}
	for i, w := range []*geom.Rect{o.Window1, o.Window2} {
		if w == nil {
			continue
		}
		if !w.Valid() || w.Dim() != t1.Dims() {
			return fmt.Errorf("distjoin: Window%d is invalid or has wrong dimension", i+1)
		}
	}
	if len(o.OrderIntersectionsFrom) > 0 {
		if o.OrderIntersectionsFrom.Dim() != t1.Dims() {
			return errors.New("distjoin: OrderIntersectionsFrom dimension mismatch")
		}
		if o.Reverse || o.MaxPairs > 0 || o.MinDist > 0 || !math.IsInf(o.MaxDist, 1) {
			return errors.New("distjoin: OrderIntersectionsFrom is incompatible with Reverse, MaxPairs and distance ranges")
		}
		if semi {
			return errors.New("distjoin: OrderIntersectionsFrom is incompatible with the semi-join")
		}
		if o.Fetch1 != nil || o.ExactDist != nil {
			return errors.New("distjoin: OrderIntersectionsFrom requires objects stored in the leaves")
		}
	}
	return nil
}
