package moments

import (
	"elmore/internal/rctree"
)

// PRHTerms carries the three per-tree / per-node quantities that enter
// the Penfield-Rubinstein-Horowitz step-response bounds (paper eq. 16):
//
//	T_P     = sum_k R_kk C_k          (one per tree)
//	T_D(i)  = sum_k R_ki C_k          (the Elmore delay)
//	T_R(i)  = sum_k R_ki^2 C_k / R_ii
//
// All are computed exactly, in O(N) total: one upward sweep for the
// downstream capacitances and one downward sweep that carries R_ii,
// T_D(i) and S(i) = sum_k R_ki^2 C_k together (see prhInto for the
// recurrence). T_R(i) is stored per node, so TR is a single load.
type PRHTerms struct {
	TP  float64   // sum_k R_kk C_k
	TD  []float64 // Elmore delays, indexed by node
	rkk []float64 // path resistance R_ii per node
	tr  []float64 // T_R(i) per node
}

// ComputePRH computes the PRH bound terms for a tree with two sweeps
// over the tree's arrays; T_P is summed in index order, the order
// moments.Incremental reproduces.
//
// Allocation shape: the three per-node arrays (TD, rkk, tr) share one
// backing and the sweeps run in them, so with the PRHTerms itself that
// is two allocations. T_D comes from the kernel ElmoreDelays runs, so
// it is bit-identical to ElmoreDelays.
func ComputePRH(t *rctree.Tree) *PRHTerms {
	n := t.N()
	back := make([]float64, 3*n)
	p := &PRHTerms{
		TD:  back[0:n:n],
		rkk: back[n : 2*n : 2*n],
		tr:  back[2*n : 3*n : 3*n],
	}
	p.TP = prhInto(t.Arrays(), p.TD, p.rkk, p.tr)
	return p
}

// prhInto runs the two PRH sweeps over the tree's arrays, writing
// straight into the node-indexed outputs, and returns T_P:
//
//  1. upward: td[i] = subtree capacitance Cdown(i) — the
//     Tree.DownstreamC kernel;
//
//  2. downward, per node i with parent p (R_pp = S(p) = 0 at a root):
//     T_D(i) = T_D(p) + r_i Cdown(i), the ElmoreDelays kernel, which
//     overwrites td[i] only after reading Cdown(i); R_ii = R_pp + r_i;
//     and
//
//     S(i) = S(p) + r_i (R_ii + R_pp) Cdown(i),  T_R(i) = S(i) / R_ii.
//
// The S recurrence is sum_k R_ki^2 C_k taken one resistor at a time:
// stepping from p to i raises R_ki from R_pp to R_ii for exactly the
// capacitors below i and leaves every other R_ki alone, and
// R_ii^2 - R_pp^2 = r_i (R_ii + R_pp). Every term is a product of
// nonnegative values, so nothing cancels. tr holds S during the sweep,
// because children read their parent's S; a last pass divides by R_ii.
// T_P is summed in ascending index order.
func prhInto(a rctree.Arrays, td, rkk, tr []float64) float64 {
	r, c, par, ks, kids := a.R, a.C, a.Parent, a.KidStart, a.Kids
	for i := len(td) - 1; i >= 0; i-- {
		d := c[i]
		for _, ch := range kids[ks[i]:ks[i+1]] {
			d += td[ch]
		}
		td[i] = d
	}
	var tp float64
	for i := range td {
		d := td[i]
		e := r[i] * d
		var rp, sp float64
		if p := par[i]; p != rctree.Source {
			e += td[p]
			rp, sp = rkk[p], tr[p]
		}
		rii := r[i] + rp
		td[i], rkk[i], tr[i] = e, rii, sp+r[i]*(rii+rp)*d
		tp += rii * c[i]
	}
	for i, s := range tr {
		tr[i] = s / rkk[i]
	}
	return tp
}

// PathResistance returns R_ii for node i (cached).
func (p *PRHTerms) PathResistance(i int) float64 { return p.rkk[i] }

// TR returns T_R(i) = sum_k R_ki^2 C_k / R_ii.
func (p *PRHTerms) TR(i int) float64 { return p.tr[i] }

// TRDirect computes T_R(i) by the O(N) definition as an independent
// oracle for tests.
func TRDirect(t *rctree.Tree, i int) float64 {
	var sum float64
	for k := 0; k < t.N(); k++ {
		rki := t.SharedPathResistance(i, k)
		sum += rki * rki * t.C(k)
	}
	return sum / t.PathResistance(i)
}

// TPDirect computes T_P by the O(N * depth) definition as an
// independent oracle for tests.
func TPDirect(t *rctree.Tree) float64 {
	var sum float64
	for k := 0; k < t.N(); k++ {
		sum += t.PathResistance(k) * t.C(k)
	}
	return sum
}
