package distjoin_test

import (
	"fmt"

	"distjoin"
)

// The distance join streams pairs of two indexed sets in ascending order of
// distance — consume only as many as you need.
func ExampleDistanceJoinIndexes() {
	shops := distjoin.NewIndexFromPoints([]distjoin.Point{
		distjoin.Pt(0, 0), distjoin.Pt(10, 0), distjoin.Pt(0, 10),
	})
	defer shops.Close()
	homes := distjoin.NewIndexFromPoints([]distjoin.Point{
		distjoin.Pt(1, 0), distjoin.Pt(10, 4),
	})
	defer homes.Close()

	j, _ := distjoin.DistanceJoinIndexes(shops.AsSpatialIndex(), homes.AsSpatialIndex(), distjoin.Options{})
	defer j.Close()
	for i := 0; i < 3; i++ {
		p, ok, _ := j.Next()
		if !ok {
			break
		}
		fmt.Printf("shop %d — home %d: %.0f\n", p.Obj1, p.Obj2, p.Dist)
	}
	// Output:
	// shop 0 — home 0: 1
	// shop 1 — home 1: 4
	// shop 1 — home 0: 9
}

// The distance semi-join assigns each first-input object its nearest
// second-input partner, closest assignments first.
func ExampleDistanceSemiJoinIndexes() {
	stores := distjoin.NewIndexFromPoints([]distjoin.Point{
		distjoin.Pt(1, 1), distjoin.Pt(9, 9), distjoin.Pt(9, 1),
	})
	defer stores.Close()
	warehouses := distjoin.NewIndexFromPoints([]distjoin.Point{
		distjoin.Pt(0, 0), distjoin.Pt(10, 10),
	})
	defer warehouses.Close()

	s, _ := distjoin.DistanceSemiJoinIndexes(stores.AsSpatialIndex(), warehouses.AsSpatialIndex(), distjoin.FilterGlobalAll, distjoin.Options{})
	defer s.Close()
	for {
		p, ok, _ := s.Next()
		if !ok {
			break
		}
		fmt.Printf("store %d → warehouse %d\n", p.Obj1, p.Obj2)
	}
	// Output:
	// store 0 → warehouse 0
	// store 1 → warehouse 1
	// store 2 → warehouse 0
}

// ClosestPair finds the single nearest pair of two sets without computing
// anything else.
func ExampleClosestPair() {
	a := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(0, 0), distjoin.Pt(50, 50)})
	defer a.Close()
	b := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(3, 4), distjoin.Pt(90, 90)})
	defer b.Close()

	p, ok, _ := distjoin.ClosestPair(a, b, distjoin.Options{})
	fmt.Println(ok, p.Obj1, p.Obj2, p.Dist)
	// Output: true 0 0 5
}

// KNearest runs the incremental nearest-neighbour search the join is
// derived from.
func ExampleKNearest() {
	idx := distjoin.NewIndexFromPoints([]distjoin.Point{
		distjoin.Pt(0, 0), distjoin.Pt(2, 0), distjoin.Pt(9, 9),
	})
	defer idx.Close()
	res, _ := distjoin.KNearest(idx, distjoin.Pt(1, 0), 2, distjoin.NNOptions{})
	for _, r := range res {
		fmt.Printf("obj %d at distance %.0f\n", r.Obj, r.Dist)
	}
	// Output:
	// obj 0 at distance 1
	// obj 1 at distance 1
}

// WithinPairs enumerates all pairs within a distance, nearest first — the
// spatial join with a within predicate.
func ExampleWithinPairs() {
	a := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(0, 0), distjoin.Pt(100, 0)})
	defer a.Close()
	b := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(0, 3), distjoin.Pt(100, 7), distjoin.Pt(50, 50)})
	defer b.Close()

	distjoin.WithinPairs(a, b, 10, distjoin.Options{}, func(p distjoin.Pair) bool {
		fmt.Printf("(%d, %d) at %.0f\n", p.Obj1, p.Obj2, p.Dist)
		return true
	})
	// Output:
	// (0, 0) at 3
	// (1, 1) at 7
}

// The clustering join pairs the two inputs mutually: each reported pair
// consumes both of its objects.
func ExampleClusteringJoinIndexes() {
	a := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(0, 0), distjoin.Pt(1, 0)})
	defer a.Close()
	b := distjoin.NewIndexFromPoints([]distjoin.Point{distjoin.Pt(0, 1), distjoin.Pt(5, 5)})
	defer b.Close()

	s, _ := distjoin.ClusteringJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), distjoin.FilterInside2, distjoin.Options{})
	defer s.Close()
	for {
		p, ok, _ := s.Next()
		if !ok {
			break
		}
		fmt.Printf("%d ↔ %d\n", p.Obj1, p.Obj2)
	}
	// Output:
	// 0 ↔ 0
	// 1 ↔ 1
}
