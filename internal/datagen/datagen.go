// Package datagen generates the synthetic spatial datasets the experiment
// harness joins, substituting for the TIGER/Line centroids the paper used
// (§3.1): Water (37,495 water-feature centroids) and Roads (200,482
// road-feature centroids) of the Washington, DC area.
//
// The substitution (documented in DESIGN.md §3) preserves the properties
// the algorithms are sensitive to: cardinality, heavy clustering along
// linear features (roads) and around blobs (water bodies), and a shared
// world extent so the two relations overlap the way real geographic layers
// do. All generators are deterministic given a seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// World is the coordinate extent of all generated datasets, mirroring a
// projected metropolitan-area extent.
var World = geom.R(geom.Pt(0, 0), geom.Pt(100_000, 100_000))

// PaperWaterSize and PaperRoadsSize are the cardinalities of the paper's
// datasets.
const (
	PaperWaterSize = 37_495
	PaperRoadsSize = 200_482
)

// Uniform generates n points distributed uniformly over the world.
func Uniform(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			World.Lo[0]+rnd.Float64()*(World.Hi[0]-World.Lo[0]),
			World.Lo[1]+rnd.Float64()*(World.Hi[1]-World.Lo[1]),
		)
	}
	return pts
}

// Clustered generates n points in k Gaussian blobs plus a uniform
// background fraction — the generic skewed workload.
func Clustered(seed int64, n, k int, spread, background float64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Pt(
			World.Lo[0]+rnd.Float64()*(World.Hi[0]-World.Lo[0]),
			World.Lo[1]+rnd.Float64()*(World.Hi[1]-World.Lo[1]),
		)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if rnd.Float64() < background {
			pts[i] = geom.Pt(
				World.Lo[0]+rnd.Float64()*(World.Hi[0]-World.Lo[0]),
				World.Lo[1]+rnd.Float64()*(World.Hi[1]-World.Lo[1]),
			)
			continue
		}
		c := centers[rnd.Intn(k)]
		pts[i] = clampToWorld(geom.Pt(
			c[0]+rnd.NormFloat64()*spread,
			c[1]+rnd.NormFloat64()*spread,
		))
	}
	return pts
}

// Water generates n water-feature-like centroids: a mixture of compact
// blobs (lakes, ponds) and points strung along a few meandering polylines
// (rivers, streams).
func Water(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	rivers := polylines(rnd, 6, 12)
	pts := make([]geom.Point, n)
	for i := range pts {
		switch {
		case rnd.Float64() < 0.55:
			// River/stream centroids hug a polyline with small lateral
			// noise.
			pts[i] = jitterAlong(rnd, rivers[rnd.Intn(len(rivers))], 600)
		case rnd.Float64() < 0.85:
			// Lakes/ponds: local blobs seeded along the rivers.
			base := jitterAlong(rnd, rivers[rnd.Intn(len(rivers))], 3_000)
			pts[i] = clampToWorld(geom.Pt(
				base[0]+rnd.NormFloat64()*900,
				base[1]+rnd.NormFloat64()*900,
			))
		default:
			pts[i] = geom.Pt(rnd.Float64()*100_000, rnd.Float64()*100_000)
		}
	}
	return pts
}

// Roads generates n road-feature-like centroids: dense urban grids around a
// handful of town centers plus arterial polylines connecting them.
func Roads(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	const towns = 9
	centers := make([]geom.Point, towns)
	for i := range centers {
		centers[i] = geom.Pt(
			10_000+rnd.Float64()*80_000,
			10_000+rnd.Float64()*80_000,
		)
	}
	arteries := make([][]geom.Point, 0, towns)
	for i := 1; i < towns; i++ {
		arteries = append(arteries, []geom.Point{centers[i-1], centers[i]})
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		switch {
		case rnd.Float64() < 0.6:
			// Urban grid: dense cluster around a town center, heavier for
			// earlier (larger) towns.
			c := centers[int(math.Floor(math.Pow(rnd.Float64(), 1.7)*towns))]
			pts[i] = clampToWorld(geom.Pt(
				c[0]+rnd.NormFloat64()*4_000,
				c[1]+rnd.NormFloat64()*4_000,
			))
		case rnd.Float64() < 0.9:
			pts[i] = jitterAlong(rnd, arteries[rnd.Intn(len(arteries))], 800)
		default:
			pts[i] = geom.Pt(rnd.Float64()*100_000, rnd.Float64()*100_000)
		}
	}
	return pts
}

// polylines draws k random polylines of the given segment count across the
// world.
func polylines(rnd *rand.Rand, k, segments int) [][]geom.Point {
	out := make([][]geom.Point, k)
	for i := range out {
		line := make([]geom.Point, segments+1)
		x := rnd.Float64() * 100_000
		y := rnd.Float64() * 100_000
		line[0] = geom.Pt(x, y)
		heading := rnd.Float64() * 2 * math.Pi
		for s := 1; s <= segments; s++ {
			heading += (rnd.Float64() - 0.5) * 1.2 // meander
			step := 5_000 + rnd.Float64()*8_000
			x += math.Cos(heading) * step
			y += math.Sin(heading) * step
			line[s] = clampToWorld(geom.Pt(x, y))
		}
		out[i] = line
	}
	return out
}

// jitterAlong picks a random point on a random segment of the polyline and
// offsets it laterally by Gaussian noise.
func jitterAlong(rnd *rand.Rand, line []geom.Point, noise float64) geom.Point {
	s := rnd.Intn(len(line) - 1)
	a, b := line[s], line[s+1]
	t := rnd.Float64()
	return clampToWorld(geom.Pt(
		a[0]+t*(b[0]-a[0])+rnd.NormFloat64()*noise,
		a[1]+t*(b[1]-a[1])+rnd.NormFloat64()*noise,
	))
}

func clampToWorld(p geom.Point) geom.Point {
	for i := range p {
		if p[i] < World.Lo[i] {
			p[i] = World.Lo[i]
		}
		if p[i] > World.Hi[i] {
			p[i] = World.Hi[i]
		}
	}
	return p
}

// BuildTree bulk-loads points into an R*-tree with the paper's node/buffer
// configuration (overridable via cfg; zero-valued fields get defaults).
func BuildTree(cfg rtree.Config, pts []geom.Point) (*rtree.Tree, error) {
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		if p.Dim() != cfg.Dims {
			return nil, fmt.Errorf("datagen: point %d has dimension %d, want %d", i, p.Dim(), cfg.Dims)
		}
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	return rtree.BulkLoad(cfg, items)
}

// InsertTree builds the tree by repeated insertion instead of bulk loading
// (slower; exercises the R* insertion machinery at scale).
func InsertTree(cfg rtree.Config, pts []geom.Point) (*rtree.Tree, error) {
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	t, err := rtree.New(cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if err := t.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// ClusteredD generates n points in k Gaussian blobs inside the unit
// hyper-cube in the given dimensionality.
func ClusteredD(seed int64, n, dims, k int, spread float64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, k)
	for i := range centers {
		c := make(geom.Point, dims)
		for d := range c {
			c[d] = rnd.Float64()
		}
		centers[i] = c
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rnd.Intn(k)]
		p := make(geom.Point, dims)
		for d := range p {
			v := c[d] + rnd.NormFloat64()*spread
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			p[d] = v
		}
		pts[i] = p
	}
	return pts
}
