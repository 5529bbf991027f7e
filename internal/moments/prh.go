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

// ComputePRH computes the PRH bound terms for a tree. The per-node
// terms come from two sweeps on the compiled plan; T_P is summed in
// compiled order, the order moments.Incremental reproduces.
//
// Allocation shape: the three retained per-node arrays (TD, rkk, tr)
// share one user-indexed backing, and the three compiled-order sweep
// buffers share another that dies with this call — three allocations
// total. T_D comes from the gather-form kernel ElmoreDelays runs, so
// it is bit-identical to ElmoreDelays.
func ComputePRH(t *rctree.Tree) *PRHTerms {
	return ComputePRHWith(t, nil)
}

// ComputePRHWith is ComputePRH drawing its three compiled-order sweep
// buffers from the caller's arena instead of allocating them — the
// per-worker fast path of the batch engine. The retained per-node
// arrays (TD, rkk, tr) always get their own backing, so the returned
// PRHTerms may outlive the arena. A nil arena makes this identical to
// ComputePRH, and results are bit-identical either way (the kernels
// write every scratch slot before reading it).
func ComputePRHWith(t *rctree.Tree, ar *Arena) *PRHTerms {
	n := t.N()
	cp := rctree.Compile(t)
	user := make([]float64, 3*n)
	p := &PRHTerms{
		TD:  user[0:n:n],
		rkk: user[n : 2*n : 2*n],
		tr:  user[2*n : 3*n : 3*n],
	}
	scratch := ar.scratch(3 * n)
	p.TP = prhInto(cp, p.TD, p.rkk, p.tr, scratch[:n], scratch[n:2*n], scratch[2*n:])
	return p
}

// prhInto runs the two PRH sweeps on the compiled plan and returns T_P:
//
//  1. upward: downC[i] = subtree capacitance Cdown(i) — the
//     Tree.DownstreamC kernel;
//
//  2. downward, per node i with parent p (R_pp = S(p) = 0 at a root):
//     R_ii = R_pp + r_i, the Elmore accumulation (the ElmoreDelays
//     kernel, reusing downC in place as its accumulator), and
//
//     S(i) = S(p) + r_i (R_ii + R_pp) Cdown(i),  T_R(i) = S(i) / R_ii.
//
// The S recurrence is sum_k R_ki^2 C_k taken one resistor at a time:
// stepping from p to i raises R_ki from R_pp to R_ii for exactly the
// capacitors below i and leaves every other R_ki alone, and
// R_ii^2 - R_pp^2 = r_i (R_ii + R_pp). Every term is a product of
// nonnegative values, so nothing cancels.
//
// Neither scratch needs to be zeroed: every slot is written before it
// is read. Pass 2 overwrites downC[i] only after reading it, and sums
// T_P in ascending compiled order.
func prhInto(cp *rctree.Compiled, td, rkk, tr, downC, rkkC, sC []float64) float64 {
	n := cp.N()
	r, c, cs, par, toUser := cp.R, cp.C, cp.ChildStart, cp.Parent, cp.ToUser
	for i := n - 1; i >= 0; i-- {
		d := c[i]
		for ch := cs[i]; ch < cs[i+1]; ch++ {
			d += downC[ch]
		}
		downC[i] = d
	}
	acc := downC // overwrites downC[i] only after it is consumed
	var tp float64
	for i := 0; i < n; i++ {
		d := downC[i]
		a := r[i] * d
		var rp, sp float64
		if p := par[i]; p != rctree.Source {
			a += acc[p]
			rp, sp = rkkC[p], sC[p]
		}
		rii := r[i] + rp
		s := sp + r[i]*(rii+rp)*d
		acc[i], rkkC[i], sC[i] = a, rii, s
		u := toUser[i]
		td[u], rkk[u], tr[u] = a, rii, s/rii
		tp += rii * c[i]
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
