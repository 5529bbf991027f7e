package awe

import (
	"fmt"

	"elmore/internal/rctree"
)

// Moments holds the transfer-function moments m_0..m_Order of every
// node of a tree: the moment-matching input of FitNode and FitStable.
//
// Sign convention (paper eq. 9): the transfer function at node i is
// expanded as H_i(s) = sum_q m_q(i) s^q, so that
//
//	m_q(i) = (-1)^q / q! * integral t^q h_i(t) dt.
//
// Consequently the Elmore delay is T_D(i) = -m_1(i). These raw moments
// alternate in sign and their central combinations cancel, which is
// why the bounds read T_D, μ2 and μ3 from package moments instead.
type Moments struct {
	tree  *rctree.Tree
	order int
	m     [][]float64 // m[q][i]
}

// ComputeMoments returns the transfer-function moments m_0..m_order at
// every node of the tree. order must be >= 1. Cost is O(order * N).
//
// The recurrences sweep the tree's own arrays (rctree.Tree.Arrays):
// index order is topological, so each pass is one plain loop, and each
// order is computed in place in its own row of the returned set.
func ComputeMoments(t *rctree.Tree, order int) (*Moments, error) {
	if order < 1 {
		return nil, fmt.Errorf("awe: moment order must be >= 1, got %d", order)
	}
	n := t.N()
	// One backing array serves every moment row. Rows are full-capacity
	// sub-slices (the three-index form), so an append on one row can
	// never bleed into its neighbor.
	back := make([]float64, (order+1)*n)
	s := &Moments{tree: t, order: order, m: make([][]float64, order+1)}
	for q := range s.m {
		s.m[q] = back[q*n : (q+1)*n : (q+1)*n]
	}
	for i := 0; i < n; i++ {
		s.m[0][i] = 1 // m_0 = DC gain = 1 at every node of an RC tree
	}
	computeInto(t.Arrays(), s)
	return s, nil
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
func computeInto(a rctree.Arrays, s *Moments) {
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
func (s *Moments) Tree() *rctree.Tree { return s.tree }

// Order returns the highest computed moment order.
func (s *Moments) Order() int { return s.order }

// M returns the coefficient moment m_q at node i. It panics with a
// descriptive message when q exceeds the computed order or i is not a
// valid node index of the underlying tree.
func (s *Moments) M(q, i int) float64 {
	if q < 0 || q > s.order {
		panic(fmt.Sprintf("awe: moment order %d out of range [0,%d]", q, s.order))
	}
	if i < 0 || i >= len(s.m[q]) {
		panic(fmt.Sprintf("awe: node index %d out of range [0,%d)", i, len(s.m[q])))
	}
	return s.m[q][i]
}
