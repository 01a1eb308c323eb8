package radviz

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAnchorsOnUnitCircle(t *testing.T) {
	p := New(4)
	anchors := p.Anchors()
	if len(anchors) != 4 {
		t.Fatalf("anchors = %d", len(anchors))
	}
	for i, a := range anchors {
		if math.Abs(Radius(a)-1) > 1e-12 {
			t.Fatalf("anchor %d radius = %v", i, Radius(a))
		}
	}
	// Anchor 0 at angle 0, anchor 1 at 90 degrees.
	if math.Abs(anchors[0].X-1) > 1e-12 || math.Abs(anchors[1].Y-1) > 1e-12 {
		t.Fatalf("anchor positions: %v", anchors)
	}
}

func TestSingleFeaturePullsToAnchor(t *testing.T) {
	p := New(4)
	pt := p.Project([]float64{0, 5, 0, 0})
	if math.Abs(pt.X) > 1e-12 || math.Abs(pt.Y-1) > 1e-12 {
		t.Fatalf("pure feature 1 point = %+v", pt)
	}
}

func TestBalancedFeaturesAtOrigin(t *testing.T) {
	p := New(4)
	pt := p.Project([]float64{3, 3, 3, 3})
	if Radius(pt) > 1e-12 {
		t.Fatalf("balanced point = %+v", pt)
	}
}

func TestZeroVectorAtOrigin(t *testing.T) {
	p := New(3)
	pt := p.Project([]float64{0, 0, 0})
	if pt.X != 0 || pt.Y != 0 {
		t.Fatalf("zero vector point = %+v", pt)
	}
}

func TestScaleInvariance(t *testing.T) {
	f := func(a, b, c float64) bool {
		fa, fb, fc := math.Abs(a), math.Abs(b), math.Abs(c)
		if fa+fb+fc == 0 || math.IsNaN(fa+fb+fc) || fa+fb+fc > 1e300 {
			return true // scaling by 7 would overflow; not a projection property
		}
		p := New(3)
		p1 := p.Project([]float64{fa, fb, fc})
		p2 := p.Project([]float64{fa * 7, fb * 7, fc * 7})
		return math.Abs(p1.X-p2.X) < 1e-9 && math.Abs(p1.Y-p2.Y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPointsStayInUnitDisk(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		feats := []float64{math.Abs(a), math.Abs(b), math.Abs(c), math.Abs(d)}
		for _, v := range feats {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return true
			}
		}
		p := New(4)
		return Radius(p.Project(feats)) <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(1)", func() { New(1) })
	mustPanic("length mismatch", func() { New(3).Project([]float64{1, 2}) })
}
