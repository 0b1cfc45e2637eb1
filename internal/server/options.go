package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"distjoin"
	"distjoin/internal/geom"
)

// From a QueryRequest to a running engine: the request's fields laid over
// the server's BaseOptions template, and the operation kind mapped to the
// library constructor that serves it.

// normKind canonicalizes the operation name.
func normKind(kind string) string {
	k := strings.ToLower(strings.TrimSpace(kind))
	if k == "" {
		k = "join"
	}
	return k
}

// buildOptions derives the cursor's join options: the server's BaseOptions
// template, overridden by the request's non-zero fields, wired to the
// server's tracer, recorder and counters.
func (s *Server) buildOptions(req *QueryRequest, queryID string) (distjoin.Options, *httpError) {
	opts := s.cfg.BaseOptions
	if req.MaxPairs < 0 {
		return opts, badRequest("max_pairs must be non-negative")
	}
	opts.MaxPairs = req.MaxPairs
	opts.MinDist = req.MinDist
	opts.MaxDist = req.MaxDist
	if req.MaxDist == 0 {
		opts.MaxDist = math.Inf(1)
	}
	opts.OmitEqualIDs = opts.OmitEqualIDs || req.OmitEqualIDs
	if req.Metric != "" {
		if opts.Metric = geom.MetricByName(strings.ToLower(req.Metric)); opts.Metric == nil {
			return opts, badRequest("unknown metric " + strconv.Quote(req.Metric))
		}
	}
	switch strings.ToLower(req.Queue) {
	case "":
	case "memory":
		opts.Queue = distjoin.QueueMemory
	case "hybrid":
		opts.Queue = distjoin.QueueHybrid
	default:
		return opts, badRequest("unknown queue " + strconv.Quote(req.Queue))
	}
	if req.HybridDT != 0 {
		opts.HybridDT = req.HybridDT
	}
	switch strings.ToLower(req.Traversal) {
	case "":
	case "even":
		opts.Traversal = distjoin.TraverseEven
	case "basic":
		opts.Traversal = distjoin.TraverseBasic
	case "simultaneous":
		opts.Traversal = distjoin.TraverseSimultaneous
	default:
		return opts, badRequest("unknown traversal " + strconv.Quote(req.Traversal))
	}
	if s.cfg.Obs != nil && opts.Obs == nil {
		// Every cursor's engines fold straight into the server-wide view; a
		// cursor's own numbers are its query trace's resources.
		opts.Obs = s.cfg.Obs
	}
	if s.cfg.Tracer != nil && opts.Tracer == nil {
		opts.Tracer = s.cfg.Tracer
	}
	// Cursor id doubles as query id, even over a template's: it is the key
	// the PreBegin and PreFinish registrations are consumed under.
	opts.QueryID = queryID
	return opts, nil
}

// parseFilter maps the wire name to the §4.2.1 filtering ladder.
func parseFilter(name string) (distjoin.SemiFilter, error) {
	switch strings.ToLower(name) {
	case "", "globalall":
		return distjoin.FilterGlobalAll, nil
	case "outside":
		return distjoin.FilterOutside, nil
	case "inside1":
		return distjoin.FilterInside1, nil
	case "inside2":
		return distjoin.FilterInside2, nil
	case "local":
		return distjoin.FilterLocal, nil
	case "globalnodes":
		return distjoin.FilterGlobalNodes, nil
	}
	return 0, fmt.Errorf("unknown filter %q", name)
}

// openIterator starts the engine for the requested operation over the two
// registry indexes.
func openIterator(req *QueryRequest, si1, si2 distjoin.SpatialIndex, opts distjoin.Options) (*distjoin.Join, error) {
	kind := normKind(req.Kind)
	switch kind {
	case "join":
		return distjoin.DistanceJoinIndexes(si1, si2, opts)
	case "semijoin", "knn", "clustering":
	default:
		return nil, fmt.Errorf("unknown kind %q (want join, semijoin, knn or clustering)", req.Kind)
	}
	f, err := parseFilter(req.Filter)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "semijoin":
		return distjoin.DistanceSemiJoinIndexes(si1, si2, f, opts)
	case "knn":
		k := req.K
		if k == 0 {
			k = 1
		}
		return distjoin.KNearestJoinIndexes(si1, si2, k, f, opts)
	}
	return distjoin.ClusteringJoinIndexes(si1, si2, f, opts)
}
