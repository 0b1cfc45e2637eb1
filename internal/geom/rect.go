package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned hyper-rectangle given by its low and high corners.
// A Rect is valid when Lo and Hi have the same dimensionality and
// Lo[i] <= Hi[i] in every dimension. A point is represented as the degenerate
// rectangle with Lo == Hi.
type Rect struct {
	Lo, Hi Point
}

// R constructs a rectangle from low/high corner coordinates. It panics if
// the corners disagree in dimension or are inverted, since rectangles are
// almost always built from literals or trusted data.
func R(lo, hi Point) Rect {
	checkDim(len(lo), len(hi))
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted rectangle in dim %d: [%g, %g]", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// RectOf returns the rectangle stored as one run of coordinates, low corner
// then high corner: the layout of a decoded index node's coordinate block.
// The result is a view of run, not a copy.
func RectOf(run []float64) Rect {
	d := len(run) / 2
	return Rect{Lo: run[:d:d], Hi: run[d:]}
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// Valid reports whether r has matching dimensions and Lo <= Hi everywhere.
func (r Rect) Valid() bool {
	if len(r.Lo) != len(r.Hi) || len(r.Lo) == 0 {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] || math.IsNaN(r.Lo[i]) || math.IsNaN(r.Hi[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether r and s are identical.
func (r Rect) Equal(s Rect) bool { return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi) }

// IsPoint reports whether r is degenerate in every dimension.
func (r Rect) IsPoint() bool {
	for i := range r.Lo {
		if r.Lo[i] != r.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Area returns the d-dimensional volume of r (area in 2-D).
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of r (the "margin" minimized by
// the R*-tree split algorithm; half the perimeter in 2-D).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// UnionInPlace grows r to contain s, reusing r's backing arrays.
func (r *Rect) UnionInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Intersection returns the overlap of r and s and whether it is non-empty.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range r.Lo {
		lo[i] = math.Max(r.Lo[i], s.Lo[i])
		hi[i] = math.Min(r.Hi[i], s.Hi[i])
		if lo[i] > hi[i] {
			return Rect{}, false
		}
	}
	return Rect{Lo: lo, Hi: hi}, true
}

// OverlapArea returns the volume of the intersection of r and s, or 0 when
// they are disjoint.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if lo > hi {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Enlargement returns the increase in volume needed for r to contain s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// String renders r as "[lo; hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s; %s]", r.Lo.String(), r.Hi.String())
}

// BoundingRect returns the minimum bounding rectangle of the given points.
// It panics when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := Rect{Lo: pts[0].Clone(), Hi: pts[0].Clone()}
	for _, p := range pts[1:] {
		r.UnionInPlace(p.Rect())
	}
	return r
}
