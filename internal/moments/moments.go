// Package moments computes, in O(N), the statistics of the impulse
// response at every node of an RC tree that the paper's bounds consume
// — the Elmore delay T_D (the mean) and the central moments μ2 and μ3 —
// plus the PRH terms and driving-point admittance moments.
//
// T_D, μ2 and μ3 are the first three cumulants, and cumulants add
// stage by stage through each 1/(1 + r·Y(s)) section (paper Appendix
// B): one upward sweep gathers the admittance moments y1..y3 looking
// into every node, and one downward sweep adds, per node,
//
//	T_D(i) = T_D(p) + r·y1
//	μ2(i)  = μ2(p) + (r·y1)² − 2·r·y2
//	μ3(i)  = μ3(p) + 6·r·y3 − 6·r·(r·y1)·y2 + 2·(r·y1)³
//
// The gather keeps y1 ≥ 0, y2 ≤ 0 and y3 ≥ 0 in floating point, so
// every added term is non-negative and Lemma 2 (μ2 ≥ 0, μ3 ≥ 0) holds
// by construction. y1 is the downstream capacitance, so the same
// downward sweep also carries the PRH terms (paper eq. 16): the path
// resistance R_ii, S(i) = Σ_k R_ki² C_k with T_R(i) = S(i)/R_ii, and
// T_P = Σ_k R_kk C_k. Raw transfer-function moments, which only AWE
// needs, live in package awe. A zero-variance node (μ2 == 0) has
// Sigma == +0 and Skewness == 0, never NaN.
package moments

import (
	"fmt"
	"math"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Set holds, at every node of a tree, the Elmore delay T_D and the
// central moments μ2 and μ3 of the impulse response, and the PRH terms
// the paper's comparison bounds read: the path resistance R_ii, S(i) =
// Σ_k R_ki² C_k (T_R = S/R_ii, divided on read) and the tree-level T_P.
type Set struct {
	tree                 *rctree.Tree
	td, mu2, mu3, rkk, s []float64
	tp                   float64
}

// columns names the per-node columns of a Set, in the order they share
// its backing array; checkFinite reports a poisoned entry by column.
var columns = [...]string{"td", "mu2", "mu3", "rkk", "s"}

// Compute returns T_D, μ2, μ3 and the PRH terms at every node of the
// tree, with one upward admittance sweep and one downward sweep over
// the tree's arrays (rctree.Tree.Arrays). Cost is O(N).
//
// The columns share one backing array, so a Set costs two allocations.
// The upward sweep leaves y1, y2, y3 in the T_D, μ2 and μ3 columns and
// the downward one overwrites them in place, each node after its
// parent.
func Compute(t *rctree.Tree) (*Set, error) {
	if err := faultinject.Fire("moments.compute"); err != nil {
		return nil, err
	}
	n := t.N()
	back := make([]float64, len(columns)*n)
	col := func(k int) []float64 { return back[k*n : (k+1)*n : (k+1)*n] }
	s := &Set{tree: t, td: col(0), mu2: col(1), mu3: col(2), rkk: col(3), s: col(4)}
	a := t.Arrays()
	admittancesInto(a, s.td, s.mu2, s.mu3)
	s.downInto(a)
	if faultinject.Enabled() && n > 0 {
		// Poisoning the deepest node's T_D is enough for chaos runs: it
		// is the Elmore delay every downstream bound reads, and the
		// checkFinite sentinel below sees it when health is on.
		s.td[n-1] = faultinject.Poison("moments.m1", s.td[n-1])
	}
	telemetry.C("moments.computes").Inc()
	telemetry.C("moments.traversals").Add(2)
	telemetry.C("moments.node_visits").Add(2 * int64(n))
	if err := checkFinite(t, back); err != nil {
		return nil, err
	}
	return s, nil
}

// checkFinite is the health sentinel on a freshly computed set, whose
// columns (in the order of columns) of t are back: a non-finite
// element value (a NaN capacitance, an Inf resistance) or an overflow
// poisons the sweeps and propagates through every downstream bound, so
// catch it here, at the source. The O(N) scan runs only when a health
// monitor is installed; one violation event summarizes the damage
// (first poisoned entry plus the total count), and under a strict
// monitor the violation fails the computation.
func checkFinite(t *rctree.Tree, back []float64) error {
	if !health.Enabled() {
		return nil
	}
	first, bad := 0, 0
	for k, v := range back {
		if !health.IsFinite(v) {
			if bad == 0 {
				first = k
			}
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	n := t.N()
	col := columns[first/n]
	return health.Violate(health.Event{
		Check:  "moments.nonfinite",
		Tree:   health.TreeLabel(n, t.Fingerprint()),
		Node:   t.Name(first % n),
		Detail: fmt.Sprintf("%d non-finite moment entries (first: %s)", bad, col),
		Values: map[string]health.F{col: health.F(back[first])},
	})
}

// admittancesInto is the upward sweep: children before parents, it
// leaves in y1, y2, y3 the admittance moments looking into every node
// (gather).
func admittancesInto(a rctree.Arrays, y1, y2, y3 []float64) {
	r, c, ks, kids := a.R, a.C, a.KidStart, a.Kids
	for i := len(y1) - 1; i >= 0; i-- {
		y := CapAdmittance(c[i])
		for _, ch := range kids[ks[i]:ks[i+1]] {
			y = gather(y, Admittance{y1[ch], y2[ch], y3[ch]}, r[ch])
		}
		y1[i], y2[i], y3[i] = y.Y1, y.Y2, y.Y3
	}
}

// downInto is the downward sweep: parents before children, it
// overwrites the admittance moments admittancesInto left in the T_D, μ2
// and μ3 columns with T_D, μ2 and μ3, fills the R_ii and S columns
// (step), and sums T_P = Σ R_ii C_i in ascending index order. Slot i is
// read before it is written, and a parent's slots are final before any
// child reads them.
func (s *Set) downInto(a rctree.Arrays) {
	r, c, par := a.R, a.C, a.Parent
	td, mu2, mu3, rkk, sr := s.td, s.mu2, s.mu3, s.rkk, s.s
	var tp float64
	for i := range td {
		var tdp, mu2p, mu3p, rp, sp float64
		if j := par[i]; j != rctree.Source {
			tdp, mu2p, mu3p, rp, sp = td[j], mu2[j], mu3[j], rkk[j], sr[j]
		}
		td[i], mu2[i], mu3[i], rkk[i], sr[i] = step(tdp, mu2p, mu3p, rp, sp, r[i], Admittance{td[i], mu2[i], mu3[i]})
		tp += rkk[i] * c[i]
	}
	s.tp = tp
}

// gather returns y in parallel with the admittance ch of a child seen
// through the child's resistor r: the one per-child expression of the
// upward sweep, shared by Compute, DownstreamAdmittances and
// Incremental, so their bits agree by construction.
func gather(y, ch Admittance, r float64) Admittance {
	return y.Parallel(ch.SeriesR(r))
}

// step returns T_D, μ2, μ3, the path resistance R_ii and S(i) =
// Σ_k R_ki² C_k of node i from those of its parent (all zero at a
// root), the resistor r into i and the admittance y looking into i: the
// one per-node expression of the downward sweep, shared by Compute and
// Incremental.PathStats. Its T_D and R_ii are the stepTD and stepR
// expressions. Each cumulant increment is a sum of non-negative terms
// (y2 ≤ 0 ≤ y3). S is Σ_k R_ki² C_k taken one resistor at a time:
// stepping from p to i raises R_ki from R_pp to R_ii for exactly the
// capacitors below i, whose sum is y1, and R_ii² − R_pp² =
// r·(R_ii + R_pp). Every factor is non-negative, so nothing cancels.
// Both sweeps rely on step being inlined: its body sits just under the
// compiler's inlining budget (go build -gcflags=-m shows the cost).
func step(tdp, mu2p, mu3p, rp, sp, r float64, y Admittance) (td, mu2, mu3, rii, s float64) {
	a := r * y.Y1
	rii = stepR(rp, r)
	return stepTD(tdp, r, y.Y1),
		mu2p + (a*a - 2*r*y.Y2),
		mu3p + (6*r*y.Y3 - 6*r*a*y.Y2 + 2*a*a*a),
		rii,
		sp + r*(rii+rp)*y.Y1
}

// stepTD is step's T_D expression, T_D(p) + r·y1, for sweeps that need
// the delay alone. ElmoreDelays adds the same two terms, so T_D agrees
// with it bit for bit.
func stepTD(tdp, r, y1 float64) float64 { return tdp + r*y1 }

// stepR is step's path-resistance expression, R_ii = r + R_pp, for
// sweeps that need it alone.
func stepR(rp, r float64) float64 { return r + rp }

// Tree returns the tree the moments were computed for.
func (s *Set) Tree() *rctree.Tree { return s.tree }

// Elmore returns the Elmore delay T_D(i), the mean of the impulse
// response (seconds).
func (s *Set) Elmore(i int) float64 { return s.td[i] }

// Mu2 returns the second central moment (variance) of the impulse
// response at node i.
func (s *Set) Mu2(i int) float64 { return s.mu2[i] }

// Mu3 returns the third central moment of the impulse response at node
// i.
func (s *Set) Mu3(i int) float64 { return s.mu3[i] }

// PathResistance returns R_ii, the resistance from the source to node i.
func (s *Set) PathResistance(i int) float64 { return s.rkk[i] }

// TR returns the PRH term T_R(i) = Σ_k R_ki² C_k / R_ii.
func (s *Set) TR(i int) float64 { return s.s[i] / s.rkk[i] }

// TP returns the PRH term T_P = Σ_k R_kk C_k, summed in ascending node
// index order.
func (s *Set) TP() float64 { return s.tp }

// Sigma returns the standard deviation sqrt(μ2) of the impulse response
// at node i (see Sigma).
func (s *Set) Sigma(i int) float64 { return Sigma(s.mu2[i], s.tree, i) }

// Skewness returns the coefficient of skewness γ = μ3 / μ2^(3/2) at
// node i (see Skewness).
func (s *Set) Skewness(i int) float64 { return Skewness(s.mu2[i], s.mu3[i]) }

// Sigma returns sqrt(mu2), the standard deviation of the impulse
// response at node i of t. The zero-variance case (degenerate trees,
// e.g. no capacitance anywhere on the node's branch) returns exactly
// +0, never -0, and reports a health note (moments.sigma_degenerate)
// so degenerate inputs are countable rather than silent. A negative or
// NaN mu2 is not clamped: it gives NaN, which core's Lemma 2 check
// reports.
func Sigma(mu2 float64, t *rctree.Tree, i int) float64 {
	if mu2 == 0 {
		if health.Enabled() {
			health.Note(health.Event{
				Check:  "moments.sigma_degenerate",
				Tree:   health.TreeLabel(t.N(), t.Fingerprint()),
				Node:   t.Name(i),
				Detail: "mu2 == 0: sigma = +0",
				Values: map[string]health.F{"mu2": health.F(mu2)},
			})
		}
		return 0
	}
	return math.Sqrt(mu2)
}

// Skewness returns the coefficient of skewness γ = mu3 / mu2^(3/2)
// (paper Definition 5); Lemma 2 proves γ ≥ 0 at every node of an RC
// tree. At zero variance it is defined as zero.
func Skewness(mu2, mu3 float64) float64 {
	if mu2 == 0 {
		return 0
	}
	return mu3 / math.Pow(mu2, 1.5)
}

// ElmoreDelays computes the Elmore delay at every node with the classic
// two-traversal algorithm (downstream capacitances up, delay
// accumulation down) on the tree's arrays, without allocating a full
// moment Set: the one returned slice is the only allocation.
func ElmoreDelays(t *rctree.Tree) []float64 {
	a := t.Arrays()
	r, c, par, ks, kids := a.R, a.C, a.Parent, a.KidStart, a.Kids
	td := make([]float64, len(par))
	for i := len(td) - 1; i >= 0; i-- {
		d := c[i]
		for _, ch := range kids[ks[i]:ks[i+1]] {
			d += td[ch]
		}
		td[i] = d
	}
	// The downward pass accumulates in place: td[i] is read as the
	// downstream capacitance before it is overwritten, and a parent's
	// slot is final before any child reads it.
	for i := range td {
		d := r[i] * td[i]
		if p := par[i]; p != rctree.Source {
			d += td[p]
		}
		td[i] = d
	}
	return td
}

// ElmoreDelayDirect computes T_D(i) = sum_k R_ki C_k by the O(N^2)
// definition. It exists as an independent oracle for tests; use
// ElmoreDelays in production code.
func ElmoreDelayDirect(t *rctree.Tree, i int) float64 {
	var td float64
	for k := 0; k < t.N(); k++ {
		td += t.SharedPathResistance(i, k) * t.C(k)
	}
	return td
}

// ComputePRH returns Compute(t): the PRH terms are columns of the
// moment set (Set.TR, Set.TP, Set.PathResistance).
//
// Deprecated: use Compute.
func ComputePRH(t *rctree.Tree) (*Set, error) { return Compute(t) }

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
