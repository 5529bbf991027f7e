// Package moments computes transfer-function moments of RC trees with
// O(N)-per-order path-tracing traversals, in the style of RICE
// (Ratzlaff & Pillage 1994). These moments are the raw material for the
// Elmore delay, the Gupta-Tutuianu-Pileggi delay bounds, the
// Penfield-Rubinstein-Horowitz waveform bounds, and AWE approximations.
//
// Edge-case contracts: M panics on an out-of-range node index (a
// programming error, not a data error); a zero-variance node (mu2 == 0,
// e.g. a capacitance-free tree) has Sigma == +0, never NaN.
//
// Sign convention (paper eq. 9): the transfer function at node i is
// expanded as H_i(s) = sum_q m_q(i) s^q, so that
//
//	m_q(i) = (-1)^q / q! * integral t^q h_i(t) dt.
//
// Consequently the Elmore delay is T_D(i) = -m_1(i), and the
// distribution moments are M_q = (-1)^q q! m_q.
package moments

import (
	"fmt"
	"math"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Set holds moments m_0..m_Order for every node of a tree.
type Set struct {
	tree  *rctree.Tree
	order int
	m     [][]float64 // m[q][i]
}

// Compute returns the transfer-function moments m_0..m_order at every
// node of the tree. order must be >= 1. Cost is O(order * N).
//
// The recurrences sweep the tree's own arrays (rctree.Tree.Arrays):
// index order is topological, so each pass is one plain loop, and each
// order is computed in place in its own row of the returned Set.
func Compute(t *rctree.Tree, order int) (*Set, error) {
	if err := faultinject.Fire("moments.compute"); err != nil {
		return nil, err
	}
	if order < 1 {
		return nil, fmt.Errorf("moments: order must be >= 1, got %d", order)
	}
	n := t.N()
	// One backing array serves every moment row, so a Set costs three
	// allocations regardless of order. Rows are full-capacity
	// sub-slices (the three-index form), so an append on one row can
	// never bleed into its neighbor.
	back := make([]float64, (order+1)*n)
	s := &Set{tree: t, order: order, m: make([][]float64, order+1)}
	for q := range s.m {
		s.m[q] = back[q*n : (q+1)*n : (q+1)*n]
	}
	for i := 0; i < n; i++ {
		s.m[0][i] = 1 // m_0 = DC gain = 1 at every node of an RC tree
	}
	computeInto(t.Arrays(), s)
	if faultinject.Enabled() && n > 0 {
		// Poisoning the deepest node's m_1 is enough for chaos runs: it
		// is the Elmore delay every downstream bound reads, and the
		// checkFinite sentinel below sees it when health is on.
		s.m[1][n-1] = faultinject.Poison("moments.m1", s.m[1][n-1])
	}
	telemetry.C("moments.computes").Inc()
	telemetry.C("moments.traversals").Add(2 * int64(order))
	telemetry.C("moments.node_visits").Add(2 * int64(order) * int64(n))
	if err := s.checkFinite(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkFinite is the health sentinel on freshly computed moments: a
// non-finite element value (a NaN capacitance, an Inf resistance)
// poisons the recurrences and propagates through every downstream
// bound, so catch it here, at the source. The O(order*N) scan runs only
// when a health monitor is installed; one violation event summarizes
// the damage (first poisoned node plus the total count), and under a
// strict monitor the violation fails the computation.
func (s *Set) checkFinite() error {
	if !health.Enabled() {
		return nil
	}
	firstQ, firstI, bad := 0, 0, 0
	for q := 1; q <= s.order; q++ {
		for i, v := range s.m[q] {
			if !health.IsFinite(v) {
				if bad == 0 {
					firstQ, firstI = q, i
				}
				bad++
			}
		}
	}
	if bad == 0 {
		return nil
	}
	t := s.tree
	return health.Violate(health.Event{
		Check:  "moments.nonfinite",
		Tree:   health.TreeLabel(t.N(), t.Fingerprint()),
		Node:   t.Name(firstI),
		Detail: fmt.Sprintf("%d non-finite moment entries (first: m_%d)", bad, firstQ),
		Values: map[string]health.F{fmt.Sprintf("m%d", firstQ): health.F(s.m[firstQ][firstI])},
	})
}

// computeInto fills s.m[1..order] from s.m[0] by sweeping the tree's
// arrays. Each order needs no scratch: the row of m_q itself first
// accumulates the downstream sums and is then rewritten in place with
// m_q.
//
// Recurrence (from KCL in the Laplace domain):
//
//	m_q(i) = - sum_k R_ki * C_k * m_{q-1}(k)
//
// computed per order with one upward pass (subtree sums of the "moment
// weights" w_k = C_k m_{q-1}(k), children before parents) and one
// downward pass that accumulates m_q(i) = m_q(parent) - R(i) *
// subtreeSum(i) along each path (slot i is read before it is written,
// and a parent's slot is final before any child reads it).
func computeInto(a rctree.Arrays, s *Set) {
	r, c, par, ks, kids := a.R, a.C, a.Parent, a.KidStart, a.Kids
	for q := 1; q <= s.order; q++ {
		prev, work := s.m[q-1], s.m[q]
		for i := len(work) - 1; i >= 0; i-- {
			d := c[i] * prev[i]
			for _, ch := range kids[ks[i]:ks[i+1]] {
				d += work[ch]
			}
			work[i] = d
		}
		for i := range work {
			m := -(r[i] * work[i])
			if p := par[i]; p != rctree.Source {
				m += work[p]
			}
			work[i] = m
		}
	}
}

// Tree returns the tree the moments were computed for.
func (s *Set) Tree() *rctree.Tree { return s.tree }

// Order returns the highest computed moment order.
func (s *Set) Order() int { return s.order }

// M returns the coefficient moment m_q at node i. It panics with a
// descriptive message when q exceeds the computed order or i is not a
// valid node index of the underlying tree.
func (s *Set) M(q, i int) float64 {
	if q < 0 || q > s.order {
		panic(fmt.Sprintf("moments: order %d out of range [0,%d]", q, s.order))
	}
	if i < 0 || i >= len(s.m[q]) {
		panic(fmt.Sprintf("moments: node index %d out of range [0,%d)", i, len(s.m[q])))
	}
	return s.m[q][i]
}

// Elmore returns the Elmore delay T_D(i) = -m_1(i) (seconds).
func (s *Set) Elmore(i int) float64 { return -s.m[1][i] }

// DistMoment returns the raw distribution moment
// M_q(i) = integral t^q h_i(t) dt = (-1)^q q! m_q(i).
func (s *Set) DistMoment(q, i int) float64 {
	v := s.M(q, i)
	sign := 1.0
	if q%2 == 1 {
		sign = -1
	}
	return sign * factorial(q) * v
}

// Mu2 returns the second central moment (variance) of the impulse
// response at node i: mu2 = 2 m2 - m1^2. Requires order >= 2.
func (s *Set) Mu2(i int) float64 { return mu2(s.M(1, i), s.M(2, i)) }

// Mu3 returns the third central moment of the impulse response at node
// i: mu3 = -6 m3 + 6 m1 m2 - 2 m1^3. Requires order >= 3.
func (s *Set) Mu3(i int) float64 { return mu3(s.M(1, i), s.M(2, i), s.M(3, i)) }

// Sigma returns the standard deviation sqrt(mu2) of the impulse
// response at node i. Lemma 2 guarantees mu2 >= 0 for RC trees; tiny
// negative values from roundoff are clamped to zero, and the
// zero-variance case (degenerate trees, e.g. no capacitance anywhere
// on the node's branch) returns exactly +0, never -0. The clamp path
// reports a health note (moments.sigma_degenerate) so degenerate
// inputs are countable rather than silent.
func (s *Set) Sigma(i int) float64 { return sigma(s.Mu2(i), s.tree, i) }

// Skewness returns the coefficient of skewness
// gamma = mu3 / mu2^(3/2) (paper Definition 5). Lemma 2 proves
// gamma >= 0 at every node of an RC tree. For a node with zero
// variance the skewness is defined as zero.
func (s *Set) Skewness(i int) float64 {
	return skewness(s.Mu2(i), func() float64 { return s.Mu3(i) })
}

// The order-3 statistics, shared by Set and Incremental so both serve
// the same bits from the same moments.

func mu2(m1, m2 float64) float64 { return 2*m2 - m1*m1 }

func mu3(m1, m2, m3 float64) float64 { return -6*m3 + 6*m1*m2 - 2*m1*m1*m1 }

// sigma is sqrt(mu2), with mu2 <= 0 clamped to +0 and noted against
// node i of t when a health monitor is installed.
func sigma(mu2 float64, t *rctree.Tree, i int) float64 {
	if mu2 <= 0 {
		if health.Enabled() {
			health.Note(health.Event{
				Check:  "moments.sigma_degenerate",
				Tree:   health.TreeLabel(t.N(), t.Fingerprint()),
				Node:   t.Name(i),
				Detail: "mu2 <= 0 clamped to sigma = +0",
				Values: map[string]health.F{"mu2": health.F(mu2)},
			})
		}
		return 0
	}
	return math.Sqrt(mu2)
}

// skewness is mu3 / mu2^(3/2), and 0 when mu2 <= 0; mu3 is evaluated
// only when mu2 > 0.
func skewness(mu2 float64, mu3 func() float64) float64 {
	if mu2 <= 0 {
		return 0
	}
	return mu3() / math.Pow(mu2, 1.5)
}

func factorial(n int) float64 {
	f := 1.0
	for k := 2; k <= n; k++ {
		f *= float64(k)
	}
	return f
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
