package moments

import (
	"elmore/internal/rctree"
)

// Admittance holds the first three moments of a driving-point
// admittance expanded about s = 0:
//
//	Y(s) = Y1*s + Y2*s^2 + Y3*s^3 + ...
//
// (Y0 = 0 for any RC tree: no DC path to ground through capacitors.)
// These three moments are exactly what the O'Brien-Savarino pi-model
// (paper eq. 26) consumes.
type Admittance struct {
	Y1, Y2, Y3 float64
}

// Parallel returns the admittance of a and b in parallel: moments add.
func (a Admittance) Parallel(b Admittance) Admittance {
	return Admittance{a.Y1 + b.Y1, a.Y2 + b.Y2, a.Y3 + b.Y3}
}

// SeriesR returns the admittance seen through a series resistance r:
// Y' = Y / (1 + r*Y), expanded to third order about s = 0.
func (a Admittance) SeriesR(r float64) Admittance {
	return Admittance{
		Y1: a.Y1,
		Y2: a.Y2 - r*a.Y1*a.Y1,
		Y3: a.Y3 - 2*r*a.Y1*a.Y2 + r*r*a.Y1*a.Y1*a.Y1,
	}
}

// CapAdmittance returns the admittance moments of a grounded capacitor:
// Y(s) = c*s.
func CapAdmittance(c float64) Admittance {
	return Admittance{Y1: c}
}

// DownstreamAdmittances returns, for every node i, the admittance
// moments looking downstream into node i: the local capacitor C(i) in
// parallel with every child subtree seen through its series resistance.
// Computed with Compute's upward sweep over the tree's arrays.
func DownstreamAdmittances(t *rctree.Tree) []Admittance {
	n := t.N()
	back := make([]float64, 3*n)
	y1, y2, y3 := back[0:n:n], back[n:2*n:2*n], back[2*n:3*n:3*n]
	admittancesInto(t.Arrays(), y1, y2, y3)
	out := make([]Admittance, n)
	for i := range out {
		out[i] = Admittance{y1[i], y2[i], y3[i]}
	}
	return out
}

// InputAdmittance returns the admittance moments of the whole tree as
// seen by the voltage source (every root subtree through its root
// resistance, in parallel).
func InputAdmittance(t *rctree.Tree) Admittance {
	down := DownstreamAdmittances(t)
	var y Admittance
	for _, r := range t.Roots() {
		y = y.Parallel(down[r].SeriesR(t.R(r)))
	}
	return y
}
