package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
)

// TestCursorResumeMatchesOneShot is the resumable-cursor correctness
// property: for every split point 0 < j < n, a server session that pulls j
// pairs, pauses, and resumes for the rest delivers the exact pair sequence
// (Obj1, Obj2, Dist — bitwise) of a one-shot in-process iterator, across
// operation kinds × index structures × queue configurations: the HTTP
// cursor layer must be invisible in the result stream.
func TestCursorResumeMatchesOneShot(t *testing.T) {
	const nA, nB, maxPairs = 48, 64, 36

	ptsA := datagen.Water(41, nA)
	ptsB := datagen.Roads(42, nB)

	// The same point sets behind both index structures.
	rtreeA := distjoin.NewIndexFromPoints(toPub(ptsA))
	rtreeB := distjoin.NewIndexFromPoints(toPub(ptsB))
	defer rtreeA.Close()
	defer rtreeB.Close()
	quadA := buildQuad(t, toPub(ptsA))
	quadB := buildQuad(t, toPub(ptsB))

	indexPairs := []struct {
		name   string
		i1, i2 string
		s1, s2 distjoin.SpatialIndex
	}{
		{"rtree-rtree", "a-rtree", "b-rtree", rtreeA.AsSpatialIndex(), rtreeB.AsSpatialIndex()},
		{"quad-quad", "a-quad", "b-quad", quadA.AsSpatialIndex(), quadB.AsSpatialIndex()},
		{"rtree-quad", "a-rtree", "b-quad", rtreeA.AsSpatialIndex(), quadB.AsSpatialIndex()},
	}
	queues := []struct {
		name string
		req  QueryRequest
	}{
		{"memory", QueryRequest{Queue: "memory"}},
		{"hybrid", QueryRequest{Queue: "hybrid", HybridDT: 2_000}},
	}
	kinds := []struct {
		name string
		req  QueryRequest
	}{
		{"join", QueryRequest{Kind: "join", MaxPairs: maxPairs}},
		{"semijoin", QueryRequest{Kind: "semijoin", Filter: "globalall"}},
		{"knn", QueryRequest{Kind: "knn", K: 2, Filter: "inside2", MaxPairs: maxPairs}},
	}

	reg := NewRegistry()
	for _, e := range []struct {
		name string
		si   distjoin.SpatialIndex
	}{
		{"a-rtree", rtreeA.AsSpatialIndex()}, {"b-rtree", rtreeB.AsSpatialIndex()},
		{"a-quad", quadA.AsSpatialIndex()}, {"b-quad", quadB.AsSpatialIndex()},
	} {
		if err := reg.Register(e.name, "test", e.si); err != nil {
			t.Fatal(err)
		}
	}
	f := &testFixture{}
	f.srv = NewServer(Config{Registry: reg, TTL: time.Minute, MaxCursors: 8})
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(func() { f.ts.Close(); f.srv.Close() })

	for _, ip := range indexPairs {
		for _, q := range queues {
			for _, kd := range kinds {
				name := fmt.Sprintf("%s/%s/%s", kd.name, ip.name, q.name)
				t.Run(name, func(t *testing.T) {
					req := kd.req
					req.Index1, req.Index2 = ip.i1, ip.i2
					req.Queue, req.HybridDT = q.req.Queue, q.req.HybridDT

					want := oneShot(t, ip.s1, ip.s2, req)
					if len(want) == 0 {
						t.Fatal("one-shot reference produced no pairs")
					}
					for j := 1; j < len(want); j++ {
						got := splitSession(t, f, req, j, len(want))
						if len(got) != len(want) {
							t.Fatalf("split %d: %d pairs, want %d", j, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("split %d: pair %d = %+v, want %+v", j, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// oneShot drains the in-process iterator for the request's configuration.
func oneShot(t *testing.T, s1, s2 distjoin.SpatialIndex, req QueryRequest) []PairJSON {
	t.Helper()
	opts := distjoin.Options{MaxPairs: req.MaxPairs}
	if req.Queue == "hybrid" {
		opts.Queue = distjoin.QueueHybrid
		opts.HybridDT = req.HybridDT
		opts.QueueStore = distjoin.NewMemPageStore
	}
	var next func() (distjoin.Pair, bool, error)
	var closeFn func() error
	switch req.Kind {
	case "join":
		j, err := distjoin.DistanceJoinIndexes(s1, s2, opts)
		if err != nil {
			t.Fatal(err)
		}
		next, closeFn = j.Next, j.Close
	case "semijoin":
		sj, err := distjoin.DistanceSemiJoinIndexes(s1, s2, distjoin.FilterGlobalAll, opts)
		if err != nil {
			t.Fatal(err)
		}
		next, closeFn = sj.Next, sj.Close
	case "knn":
		sj, err := distjoin.KNearestJoinIndexes(s1, s2, req.K, distjoin.FilterInside2, opts)
		if err != nil {
			t.Fatal(err)
		}
		next, closeFn = sj.Next, sj.Close
	default:
		t.Fatalf("unknown kind %q", req.Kind)
	}
	defer closeFn()
	var out []PairJSON
	for {
		p, ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, PairJSON{Obj1: uint64(p.Obj1), Obj2: uint64(p.Obj2), Dist: p.Dist})
	}
}

// splitSession runs one server cursor session: pull j pairs, pause, resume
// and drain. Pulling past exhaustion is tolerated (total is the reference
// length, so the final batch may come back short or empty).
func splitSession(t *testing.T, f *testFixture, req QueryRequest, j, total int) []PairJSON {
	t.Helper()
	cr := f.create(t, req)
	got := f.next(t, cr.Cursor, j).Pairs
	// The pause: the cursor sits idle in the table between the two pulls.
	rest := f.next(t, cr.Cursor, total-j+8)
	got = append(got, rest.Pairs...)
	if !rest.Done {
		// Drain any residue (knn sessions can be cut by MaxPairs exactly at
		// the boundary).
		more := f.next(t, cr.Cursor, 16)
		got = append(got, more.Pairs...)
	}
	if code, _ := f.do(t, "DELETE", "/v1/cursor/"+cr.Cursor, nil); code != 204 {
		t.Fatalf("delete: %d", code)
	}
	return got
}

// toPub converts internal geom points to the public alias (they are the
// same type; this keeps the dependency explicit).
func toPub(pts []distjoin.Point) []distjoin.Point { return pts }

// buildQuad loads points into a quadtree over the datagen world.
func buildQuad(t *testing.T, pts []distjoin.Point) *distjoin.QuadIndex {
	t.Helper()
	q, err := distjoin.NewQuadIndex(distjoin.QuadConfig{Bounds: datagen.World, BucketSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := q.InsertPoint(p, distjoin.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return q
}
