// Cities and rivers: the paper's running query examples (§1, §5).
//
//  1. "Find the city nearest to any river" — the first tuple of a distance
//     join of cities with river points.
//  2. "Find the city nearest to any river, such that the city has a
//     population of more than 5 million" — both query plans of §5: (a)
//     filter the incremental join's output, and (b) pre-select big cities,
//     index them, and join only those.
//  3. "Find cities within 5 miles of any river" — a distance join with a
//     maximum distance, consumed as a within-style join.
//
// Run with: go run ./examples/cityriver
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distjoin"
)

type city struct {
	name       string
	loc        distjoin.Point
	population int
}

func main() {
	rnd := rand.New(rand.NewSource(11))

	// A synthetic gazetteer: 300 cities with Zipf-ish populations.
	cities := make([]city, 300)
	for i := range cities {
		pop := int(12_000_000 / float64(1+i))
		cities[i] = city{
			name:       fmt.Sprintf("city-%03d", i),
			loc:        distjoin.Pt(rnd.Float64()*500, rnd.Float64()*500),
			population: pop,
		}
	}
	// River sample points along a meandering path.
	var rivers []distjoin.Point
	x, y := 0.0, 250.0
	for x < 500 {
		rivers = append(rivers, distjoin.Pt(x, y))
		x += 2
		y += (rnd.Float64() - 0.5) * 20
	}

	cityPts := make([]distjoin.Point, len(cities))
	for i, c := range cities {
		cityPts[i] = c.loc
	}
	cityIdx := distjoin.NewIndexFromPoints(cityPts)
	defer cityIdx.Close()
	riverIdx := distjoin.NewIndexFromPoints(rivers)
	defer riverIdx.Close()

	// Query 1: the city nearest to any river. One Next() call does it.
	j, err := distjoin.DistanceJoinIndexes(cityIdx.AsSpatialIndex(), riverIdx.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if p, ok, err := j.Next(); err != nil {
		log.Fatal(err)
	} else if ok {
		fmt.Printf("nearest city to a river: %s (%.2f away)\n", cities[p.Obj1].name, p.Dist)
	}
	j.Close()

	// Query 2a: nearest big city, plan (1) — filter the incremental output.
	// The join stays incremental: it stops as soon as a qualifying city
	// appears, without computing the rest.
	const minPop = 5_000_000
	j, err = distjoin.DistanceJoinIndexes(cityIdx.AsSpatialIndex(), riverIdx.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		log.Fatal(err)
	}
	examined := 0
	for {
		p, ok, err := j.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		examined++
		if cities[p.Obj1].population > minPop {
			fmt.Printf("plan 1 (filter output): %s, population %d, distance %.2f (examined %d pairs)\n",
				cities[p.Obj1].name, cities[p.Obj1].population, p.Dist, examined)
			break
		}
	}
	j.Close()

	// Query 2b: plan (2) — select big cities first, build an index on the
	// restriction, and join that. Better when the predicate is selective.
	var bigPts []distjoin.Point
	var bigIDs []int
	for i, c := range cities {
		if c.population > minPop {
			bigPts = append(bigPts, c.loc)
			bigIDs = append(bigIDs, i)
		}
	}
	bigIdx, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, bigPts)
	if err != nil {
		log.Fatal(err)
	}
	defer bigIdx.Close()
	j, err = distjoin.DistanceJoinIndexes(bigIdx.AsSpatialIndex(), riverIdx.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if p, ok, err := j.Next(); err != nil {
		log.Fatal(err)
	} else if ok {
		c := cities[bigIDs[p.Obj1]]
		fmt.Printf("plan 2 (pre-select):    %s, population %d, distance %.2f (indexed %d big cities)\n",
			c.name, c.population, p.Dist, len(bigPts))
	}
	j.Close()

	// Query 3: cities within 5 miles of any river — a within join expressed
	// as a distance join with MaxDist, de-duplicated on the city.
	const withinMiles = 5.0
	s, err := distjoin.DistanceSemiJoinIndexes(cityIdx.AsSpatialIndex(), riverIdx.AsSpatialIndex(), distjoin.FilterGlobalAll,
		distjoin.Options{MaxDist: withinMiles})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	count := 0
	for {
		_, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	fmt.Printf("cities within %.0f miles of a river: %d of %d\n", withinMiles, count, len(cities))
}
