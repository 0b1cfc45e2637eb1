// Line-segment joins: the paper's named future-work case (§3.1: "dealing
// with line data is much more complex than points... a subject for future
// study").
//
// Roads and power lines are line segments. The index stores each segment's
// minimal bounding rectangle (the engine's OBR mode, Figure 3), and the
// exact segment-to-segment distance is supplied through the ExactDist
// callback — the consistency requirement (exact distance ≥ MINDIST of the
// bounding rectangles) is exactly the paper's §2.2 condition, so the
// incremental machinery works unchanged.
//
// Run with: go run ./examples/lines
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"distjoin"
	"distjoin/internal/geom"
)

// randomSegments draws n short segments with a shared seed.
func randomSegments(seed int64, n int, length float64) []geom.Segment {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]geom.Segment, n)
	for i := range out {
		x, y := rnd.Float64()*10_000, rnd.Float64()*10_000
		ang := rnd.Float64() * 2 * math.Pi
		l := length/2 + rnd.Float64()*length
		out[i] = geom.Seg(
			geom.Pt(x, y),
			geom.Pt(x+math.Cos(ang)*l, y+math.Sin(ang)*l))
	}
	return out
}

func indexSegments(segs []geom.Segment) (*distjoin.Index, error) {
	items := make([]distjoin.IndexItem, len(segs))
	for i, s := range segs {
		items[i] = distjoin.IndexItem{Rect: s.BBox(), Obj: distjoin.ObjID(i)}
	}
	return distjoin.BulkIndex(distjoin.IndexConfig{}, items)
}

func main() {
	roads := randomSegments(1, 5_000, 120)
	powerLines := randomSegments(2, 2_000, 400)

	roadIdx, err := indexSegments(roads)
	if err != nil {
		log.Fatal(err)
	}
	defer roadIdx.Close()
	lineIdx, err := indexSegments(powerLines)
	if err != nil {
		log.Fatal(err)
	}
	defer lineIdx.Close()

	opts := distjoin.Options{
		ExactDist: func(o1, o2 distjoin.ObjID) (float64, error) {
			return geom.SegmentDist(roads[o1], powerLines[o2]), nil
		},
	}

	// The five closest (road, power line) encounters.
	j, err := distjoin.DistanceJoinIndexes(roadIdx.AsSpatialIndex(), lineIdx.AsSpatialIndex(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("five closest (road, power line) pairs:")
	for i := 0; i < 5; i++ {
		p, ok, err := j.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("%d. road %4d — line %4d: %.3f m\n", i+1, p.Obj1, p.Obj2, p.Dist)
	}
	j.Close()

	// Crossings: a within join at distance zero (§2.2.5's intersection
	// case expressed through the range restriction).
	j, err = distjoin.DistanceJoinIndexes(roadIdx.AsSpatialIndex(), lineIdx.AsSpatialIndex(), distjoin.Options{
		MaxDist:   1e-9,
		ExactDist: opts.ExactDist,
	})
	if err != nil {
		log.Fatal(err)
	}
	crossings := 0
	for {
		_, ok, err := j.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		crossings++
	}
	j.Close()
	fmt.Printf("\nroad/power-line crossings: %d\n", crossings)

	// For each power line, its nearest road (a clearance report), worst
	// clearance last.
	s, err := distjoin.DistanceSemiJoinIndexes(lineIdx.AsSpatialIndex(), roadIdx.AsSpatialIndex(), distjoin.FilterInside2, distjoin.Options{
		ExactDist: func(o1, o2 distjoin.ObjID) (float64, error) {
			return geom.SegmentDist(powerLines[o1], roads[o2]), nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	var worst distjoin.Pair
	n := 0
	for {
		p, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		worst = p
		n++
	}
	fmt.Printf("clearance report for %d power lines; most isolated: line %d at %.1f m from road %d\n",
		n, worst.Obj1, worst.Dist, worst.Obj2)
}
