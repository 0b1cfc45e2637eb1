// Quickstart: build two spatial indexes and stream the closest pairs.
//
// The incremental distance join delivers pairs in ascending order of
// distance, one at a time — the ten pairs printed here cost a tiny fraction
// of the 10,000 × 20,000 = 200-million-pair Cartesian product.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distjoin"
)

func main() {
	// Two synthetic point sets standing in for, say, hotels and cafes.
	rnd := rand.New(rand.NewSource(42))
	randomPoints := func(n int) []distjoin.Point {
		pts := make([]distjoin.Point, n)
		for i := range pts {
			pts[i] = distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		}
		return pts
	}
	hotels := distjoin.NewIndexFromPoints(randomPoints(10_000))
	defer hotels.Close()
	cafes := distjoin.NewIndexFromPoints(randomPoints(20_000))
	defer cafes.Close()

	// Stream the ten closest (hotel, cafe) pairs.
	j, err := distjoin.DistanceJoinIndexes(hotels.AsSpatialIndex(), cafes.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer j.Close()

	fmt.Println("ten closest (hotel, cafe) pairs:")
	for i := 0; i < 10; i++ {
		p, ok, err := j.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("%2d. hotel %5d at %v  —  cafe %5d at %v  (distance %.3f)\n",
			i+1, p.Obj1, p.Rect1.Lo, p.Obj2, p.Rect2.Lo, p.Dist)
	}
}
