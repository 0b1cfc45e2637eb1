// Warehouse assignment: the paper's §1 motivating scenario for the distance
// semi-join as a clustering operator.
//
// Given stores and warehouses, the distance semi-join of stores with
// warehouses reports, for each store, its closest warehouse — computed
// fully, this partitions the stores like a discrete Voronoi diagram with
// the warehouses as sites, using a plain database primitive instead of a
// computational-geometry library.
//
// The pairs arrive in ascending distance order, so the example also shows
// the "fast first" property: the best-served stores are known immediately,
// long before the full assignment completes.
//
// Run with: go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distjoin"
)

func main() {
	rnd := rand.New(rand.NewSource(7))

	// 5,000 stores scattered across a metropolitan area.
	stores := make([]distjoin.Point, 5_000)
	for i := range stores {
		stores[i] = distjoin.Pt(rnd.Float64()*100, rnd.Float64()*100)
	}
	// Six warehouses.
	warehouses := []distjoin.Point{
		distjoin.Pt(20, 20), distjoin.Pt(80, 20), distjoin.Pt(50, 50),
		distjoin.Pt(20, 80), distjoin.Pt(80, 80), distjoin.Pt(95, 55),
	}

	storeIdx := distjoin.NewIndexFromPoints(stores)
	defer storeIdx.Close()
	whIdx := distjoin.NewIndexFromPoints(warehouses)
	defer whIdx.Close()

	s, err := distjoin.DistanceSemiJoinIndexes(storeIdx.AsSpatialIndex(), whIdx.AsSpatialIndex(), distjoin.FilterGlobalAll, distjoin.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Consume the full semi-join: a complete store→warehouse assignment.
	assigned := make([]int, len(warehouses))
	var worst distjoin.Pair
	first := true
	for {
		p, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		if first {
			fmt.Printf("best-served store:  store %4d → warehouse %d (distance %.2f)\n",
				p.Obj1, p.Obj2, p.Dist)
			first = false
		}
		assigned[p.Obj2]++
		worst = p
	}
	fmt.Printf("worst-served store: store %4d → warehouse %d (distance %.2f)\n\n",
		worst.Obj1, worst.Obj2, worst.Dist)

	fmt.Println("discrete Voronoi cell sizes (stores per warehouse):")
	total := 0
	for w, n := range assigned {
		fmt.Printf("  warehouse %d at %v: %4d stores\n", w, warehouses[w], n)
		total += n
	}
	fmt.Printf("total assigned: %d / %d\n", total, len(stores))
}
