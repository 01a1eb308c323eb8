// Package radviz implements the RadViz multidimensional projection
// (Hoffman et al., 1999) used by the paper's Fig 16: N feature anchors
// are spaced uniformly on the unit circle and each data point is placed
// at the feature-weighted average of the anchor positions — points land
// near the anchors whose features dominate them.
package radviz

import "math"

// Point is a projected 2D coordinate inside the unit circle.
type Point struct {
	X, Y float64
}

// Projection holds precomputed anchor positions for N features.
type Projection struct {
	anchors []Point
}

// New creates a projection for n >= 2 features. Anchor 0 sits at angle 0
// (positive X axis); anchors proceed counter-clockwise.
func New(n int) *Projection {
	if n < 2 {
		panic("radviz: need at least 2 anchors")
	}
	p := &Projection{anchors: make([]Point, n)}
	for i := range p.anchors {
		theta := 2 * math.Pi * float64(i) / float64(n)
		p.anchors[i] = Point{X: math.Cos(theta), Y: math.Sin(theta)}
	}
	return p
}

// Anchors returns the anchor positions (shared; do not modify).
func (p *Projection) Anchors() []Point { return p.anchors }

// Project maps a feature vector to its RadViz position. Feature values
// must be non-negative; the projection is invariant under uniform scaling
// of the vector. A zero vector lands at the origin.
func (p *Projection) Project(features []float64) Point {
	if len(features) != len(p.anchors) {
		panic("radviz: feature count does not match anchor count")
	}
	var sum float64
	for _, f := range features {
		if f > 0 {
			sum += f
		}
	}
	if sum == 0 {
		return Point{}
	}
	var out Point
	for i, f := range features {
		if f <= 0 {
			continue
		}
		w := f / sum
		out.X += w * p.anchors[i].X
		out.Y += w * p.anchors[i].Y
	}
	return out
}

// Radius returns the distance from the origin (0 = perfectly balanced
// features, 1 = a single dominating feature).
func Radius(pt Point) float64 { return math.Hypot(pt.X, pt.Y) }
