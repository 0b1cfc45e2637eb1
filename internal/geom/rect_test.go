package geom

import (
	"math"
	"testing"
)

func TestRConstructor(t *testing.T) {
	r := R(Pt(0, 0), Pt(2, 3))
	if r.Area() != 6 {
		t.Fatalf("Area = %g, want 6", r.Area())
	}
	if r.Margin() != 5 {
		t.Fatalf("Margin = %g, want 5", r.Margin())
	}
}

func TestRPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inverted rect")
		}
	}()
	R(Pt(1, 0), Pt(0, 1))
}

func TestRectValid(t *testing.T) {
	if !R(Pt(0), Pt(1)).Valid() {
		t.Error("valid rect reported invalid")
	}
	if (Rect{Lo: Pt(1), Hi: Pt(0)}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if (Rect{Lo: Pt(0, 0), Hi: Pt(1)}).Valid() {
		t.Error("mismatched dims reported valid")
	}
	if (Rect{Lo: Pt(math.NaN()), Hi: Pt(1)}).Valid() {
		t.Error("NaN rect reported valid")
	}
	if (Rect{}).Valid() {
		t.Error("zero rect reported valid")
	}
}

func TestRectCenter(t *testing.T) {
	c := R(Pt(0, 2), Pt(4, 6)).Center()
	if !c.Equal(Pt(2, 4)) {
		t.Fatalf("Center = %v, want (2, 4)", c)
	}
}

func TestRectContains(t *testing.T) {
	outer := R(Pt(0, 0), Pt(10, 10))
	if !outer.Contains(R(Pt(1, 1), Pt(9, 9))) {
		t.Error("should contain inner rect")
	}
	if !outer.Contains(outer) {
		t.Error("should contain itself")
	}
	if outer.Contains(R(Pt(5, 5), Pt(11, 9))) {
		t.Error("should not contain overflowing rect")
	}
	if !outer.ContainsPoint(Pt(10, 10)) {
		t.Error("boundary point should be contained")
	}
	if outer.ContainsPoint(Pt(10.1, 5)) {
		t.Error("outside point should not be contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := R(Pt(0, 0), Pt(2, 2))
	cases := []struct {
		b    Rect
		want bool
	}{
		{R(Pt(1, 1), Pt(3, 3)), true},
		{R(Pt(2, 2), Pt(3, 3)), true}, // touching corner counts
		{R(Pt(3, 0), Pt(4, 2)), false},
		{R(Pt(0, 3), Pt(2, 4)), false},
		{a, true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v, %v", a, c.b)
		}
	}
}

func TestRectUnionIntersection(t *testing.T) {
	a := R(Pt(0, 0), Pt(2, 2))
	b := R(Pt(1, 1), Pt(3, 4))
	u := a.Union(b)
	if !u.Equal(R(Pt(0, 0), Pt(3, 4))) {
		t.Fatalf("Union = %v", u)
	}
	x, ok := a.Intersection(b)
	if !ok || !x.Equal(R(Pt(1, 1), Pt(2, 2))) {
		t.Fatalf("Intersection = %v, %v", x, ok)
	}
	if _, ok := a.Intersection(R(Pt(5, 5), Pt(6, 6))); ok {
		t.Fatal("disjoint rects reported intersecting")
	}
}

func TestRectUnionInPlace(t *testing.T) {
	a := R(Pt(0, 0), Pt(1, 1)).Clone()
	a.UnionInPlace(R(Pt(-1, 2), Pt(0.5, 3)))
	if !a.Equal(R(Pt(-1, 0), Pt(1, 3))) {
		t.Fatalf("UnionInPlace = %v", a)
	}
}

func TestRectOverlapArea(t *testing.T) {
	a := R(Pt(0, 0), Pt(2, 2))
	if got := a.OverlapArea(R(Pt(1, 1), Pt(3, 3))); got != 1 {
		t.Errorf("OverlapArea = %g, want 1", got)
	}
	if got := a.OverlapArea(R(Pt(3, 3), Pt(4, 4))); got != 0 {
		t.Errorf("disjoint OverlapArea = %g, want 0", got)
	}
	if got := a.OverlapArea(R(Pt(2, 0), Pt(3, 2))); got != 0 {
		t.Errorf("touching OverlapArea = %g, want 0", got)
	}
}

func TestRectEnlargement(t *testing.T) {
	a := R(Pt(0, 0), Pt(2, 2))
	if got := a.Enlargement(R(Pt(1, 1), Pt(1.5, 1.5))); got != 0 {
		t.Errorf("contained Enlargement = %g, want 0", got)
	}
	if got := a.Enlargement(R(Pt(0, 0), Pt(4, 2))); got != 4 {
		t.Errorf("Enlargement = %g, want 4", got)
	}
}

func TestRectFaces(t *testing.T) {
	r := R(Pt(0, 0), Pt(2, 3))
	faces := r.Faces()
	if len(faces) != 4 {
		t.Fatalf("len(Faces) = %d, want 4", len(faces))
	}
	want := []Rect{
		R(Pt(0, 0), Pt(0, 3)), // x = 0
		R(Pt(2, 0), Pt(2, 3)), // x = 2
		R(Pt(0, 0), Pt(2, 0)), // y = 0
		R(Pt(0, 3), Pt(2, 3)), // y = 3
	}
	for i, f := range faces {
		if !f.Equal(want[i]) {
			t.Errorf("face %d = %v, want %v", i, f, want[i])
		}
		if !r.Contains(f) {
			t.Errorf("face %d not contained in rect", i)
		}
	}
}

func TestBoundingRect(t *testing.T) {
	r := BoundingRect([]Point{Pt(1, 5), Pt(-2, 3), Pt(0, 7)})
	if !r.Equal(R(Pt(-2, 3), Pt(1, 7))) {
		t.Fatalf("BoundingRect = %v", r)
	}
}

func TestBoundingRectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoundingRect(nil)
}
