// Farthest-first ordering: the reverse distance join of §2.2.5.
//
// Reversing the queue order — and keying node pairs by their distance
// UPPER bound instead of their lower bound — makes the same incremental
// machinery deliver the farthest pairs first. A logistics planner might use
// this to find the worst depot/customer combinations without computing the
// whole join.
//
// Run with: go run ./examples/farthest
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distjoin"
)

func main() {
	rnd := rand.New(rand.NewSource(3))
	randomPoints := func(n int) []distjoin.Point {
		pts := make([]distjoin.Point, n)
		for i := range pts {
			pts[i] = distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		}
		return pts
	}
	depots := distjoin.NewIndexFromPoints(randomPoints(2_000))
	defer depots.Close()
	customers := distjoin.NewIndexFromPoints(randomPoints(5_000))
	defer customers.Close()

	// Farthest pairs first.
	j, err := distjoin.DistanceJoinIndexes(depots.AsSpatialIndex(), customers.AsSpatialIndex(), distjoin.Options{Reverse: true})
	if err != nil {
		log.Fatal(err)
	}
	defer j.Close()
	fmt.Println("five farthest (depot, customer) pairs:")
	for i := 0; i < 5; i++ {
		p, ok, err := j.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("%d. depot %4d — customer %4d: %.2f\n", i+1, p.Obj1, p.Obj2, p.Dist)
	}

	// Reverse semi-join: for each depot, its FARTHEST customer, reported
	// farthest-first (the second interpretation discussed in §2.3).
	s, err := distjoin.DistanceSemiJoinIndexes(depots.AsSpatialIndex(), customers.AsSpatialIndex(), distjoin.FilterInside2,
		distjoin.Options{Reverse: true})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	fmt.Println("\nthree depots with the most remote worst-case customer:")
	for i := 0; i < 3; i++ {
		p, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("%d. depot %4d: farthest customer %4d at %.2f\n", i+1, p.Obj1, p.Obj2, p.Dist)
	}
}
