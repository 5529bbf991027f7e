// Package exact computes closed-form responses of RC trees by
// eigen-decomposition. An RC tree is a linear system
//
//	C dv/dt = -G v + b u(t)
//
// with diagonal capacitance matrix C and symmetric conductance matrix
// G. The symmetrized state matrix A = C^{-1/2} G C^{-1/2} has real
// positive eigenvalues (the circuit's pole magnitudes), so every node
// response is an explicit sum of decaying exponentials. This gives
// machine-precision step, impulse, ramp and piecewise-linear responses
// and exact threshold crossings — the repository's substitute for the
// paper's circuit-simulator "actual delay" column.
package exact

import (
	"context"
	"fmt"
	"math"

	"elmore/internal/linalg"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// System is the eigen-decomposed RC tree, ready to evaluate responses
// at any node and any time.
type System struct {
	tree  *rctree.Tree
	poles []float64   // eigenvalues of A, ascending (1/seconds)
	coef  [][]float64 // coef[i][j]: step response v_i(t) = 1 - sum_j coef[i][j] exp(-poles[j] t)
}

// NewSystem builds the exact engine for a tree. Every node must carry
// strictly positive capacitance (use Regularize for trees with pure
// resistive junctions). Cost is O(N^3); intended for trees up to a few
// hundred nodes — use package sim for larger circuits.
func NewSystem(t *rctree.Tree) (*System, error) {
	return NewSystemContext(context.Background(), t)
}

// NewSystemContext is NewSystem under a context: when the context
// carries a telemetry tracer, the build and its eigensolve are recorded
// as nested spans, and the eigensolve cost (Jacobi sweeps, pole count)
// is exported through the metrics registry.
func NewSystemContext(ctx context.Context, t *rctree.Tree) (*System, error) {
	n := t.N()
	ctx, sp := telemetry.Start(ctx, "exact.newsystem")
	sp.AttrInt("nodes", int64(n))
	defer sp.End()
	for i := 0; i < n; i++ {
		if t.C(i) <= 0 {
			return nil, fmt.Errorf("exact: node %q has zero capacitance; regularize the tree first", t.Name(i))
		}
	}

	// Build G (node conductance matrix) and the square roots of C.
	g := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cond := 1 / t.R(i)
		p := t.Parent(i)
		g.Add(i, i, cond)
		if p != rctree.Source {
			g.Add(p, p, cond)
			g.Add(i, p, -cond)
			g.Add(p, i, -cond)
		}
	}
	sqrtC := make([]float64, n)
	for i := 0; i < n; i++ {
		sqrtC[i] = math.Sqrt(t.C(i))
	}

	// A = C^{-1/2} G C^{-1/2}: symmetric positive definite.
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, g.At(i, j)/(sqrtC[i]*sqrtC[j]))
		}
	}
	_, esp := telemetry.Start(ctx, "exact.eigensolve")
	vals, vecs, sweeps, err := linalg.EigSymSweeps(a)
	esp.AttrInt("nodes", int64(n))
	esp.AttrInt("sweeps", int64(sweeps))
	esp.End()
	telemetry.C("exact.eigensolve_sweeps").Add(int64(sweeps))
	if err != nil {
		return nil, fmt.Errorf("exact: eigen-decomposition failed: %w", err)
	}
	if vals[0] <= 0 {
		return nil, fmt.Errorf("exact: non-positive pole %g (tree not properly grounded?)", vals[0])
	}
	telemetry.C("exact.systems").Inc()
	telemetry.C("exact.poles").Add(int64(n))

	// Step response: with w = C^{1/2} v, w(t) = (I - Q e^{-Λt} Q^T) w_ss
	// and w_ss = C^{1/2} * 1 (unit DC gain everywhere). Hence
	// v_i(t) = 1 - sum_j (Q_ij / sqrtC_i) * (sum_k Q_kj sqrtC_k) e^{-λ_j t}.
	proj := make([]float64, n) // proj[j] = sum_k Q_kj sqrtC_k
	for j := 0; j < n; j++ {
		var s float64
		for k := 0; k < n; k++ {
			s += vecs.At(k, j) * sqrtC[k]
		}
		proj[j] = s
	}
	coef := make([][]float64, n)
	for i := 0; i < n; i++ {
		coef[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			coef[i][j] = vecs.At(i, j) / sqrtC[i] * proj[j]
		}
	}
	return &System{tree: t, poles: vals, coef: coef}, nil
}

// Regularize returns a clone of the tree in which every zero
// capacitance is replaced by frac times the smallest positive
// capacitance in the tree (default 1e-6 if frac <= 0). The Elmore delay
// and all moments change only by that perturbation; the exact engine
// becomes applicable.
func Regularize(t *rctree.Tree, frac float64) *rctree.Tree {
	if frac <= 0 {
		frac = 1e-6
	}
	minC := math.Inf(1)
	for i := 0; i < t.N(); i++ {
		if c := t.C(i); c > 0 && c < minC {
			minC = c
		}
	}
	if math.IsInf(minC, 1) {
		minC = 1e-15
	}
	cp := t.Clone()
	replaced := 0
	for i := 0; i < cp.N(); i++ {
		if cp.C(i) == 0 {
			// Values validated at build time; scaling keeps them valid.
			if err := cp.SetC(i, frac*minC); err != nil {
				panic(err)
			}
			replaced++
		}
	}
	telemetry.C("exact.regularized_nodes").Add(int64(replaced))
	if replaced > 0 {
		telemetry.C("exact.regularizations").Inc()
	}
	return cp
}

// Tree returns the tree the system was built for.
func (s *System) Tree() *rctree.Tree { return s.tree }

// Poles returns the pole magnitudes (ascending, in 1/seconds). The
// slowest time constant is 1/Poles()[0]. The slice is owned by the
// system.
func (s *System) Poles() []float64 { return s.poles }

// Residues returns the step-response expansion coefficients at node i:
// v_i(t) = 1 - sum_j r_j exp(-poles_j t). The slice is owned by the
// system.
func (s *System) Residues(i int) []float64 { return s.coef[i] }

// VStep returns the unit step response at node i, time t (t in seconds).
func (s *System) VStep(i int, t float64) float64 {
	if t <= 0 {
		return 0
	}
	var sum float64
	for j, lam := range s.poles {
		sum += s.coef[i][j] * math.Exp(-lam*t)
	}
	return 1 - sum
}

// Impulse returns the unit impulse response h_i(t) = dVStep/dt. At
// t = 0 it is exactly 0 below the root nodes: every capacitance is
// positive, so H_i(s) falls off as s^-depth(i) and h_i(0+) = 0 at
// depth >= 2, where the modal sum would only cancel large residues
// down to roundoff of either sign.
func (s *System) Impulse(i int, t float64) float64 {
	if t < 0 || (t == 0 && s.tree.Parent(i) != rctree.Source) {
		return 0
	}
	var sum float64
	for j, lam := range s.poles {
		sum += s.coef[i][j] * lam * math.Exp(-lam*t)
	}
	return sum
}

// ImpulseDeriv returns h_i'(t), used to locate the mode of the impulse
// response. At t = 0 it is exactly 0 at depth >= 3, where H_i(s) falls
// off as s^-3 or faster and the modal sum would only cancel large
// residues down to roundoff of either sign.
func (s *System) ImpulseDeriv(i int, t float64) float64 {
	if t < 0 || (t == 0 && s.tree.Depth(i) >= 3) {
		return 0
	}
	var sum float64
	for j, lam := range s.poles {
		sum -= s.coef[i][j] * lam * lam * math.Exp(-lam*t)
	}
	return sum
}

// StepIntegral returns S_i(t) = integral_0^t VStep(i, τ) dτ in closed
// form — the unit-slope ramp response, and the building block for
// arbitrary piecewise-linear inputs.
func (s *System) StepIntegral(i int, t float64) float64 {
	if t <= 0 {
		return 0
	}
	sum := t
	for j, lam := range s.poles {
		sum -= s.coef[i][j] / lam * (1 - math.Exp(-lam*t))
	}
	return sum
}

// DistMoment returns the exact raw distribution moment
// integral t^q h_i(t) dt = q! sum_j coef_ij / poles_j^q.
func (s *System) DistMoment(q, i int) float64 {
	fact := 1.0
	for k := 2; k <= q; k++ {
		fact *= float64(k)
	}
	var sum float64
	for j, lam := range s.poles {
		sum += s.coef[i][j] / math.Pow(lam, float64(q))
	}
	return fact * sum
}

// Mean returns the exact mean of the impulse response at node i — by
// construction equal to the Elmore delay.
func (s *System) Mean(i int) float64 { return s.DistMoment(1, i) }

// Mu2 returns the exact central second moment of h_i.
func (s *System) Mu2(i int) float64 {
	m1 := s.DistMoment(1, i)
	return s.DistMoment(2, i) - m1*m1
}

// Mu3 returns the exact central third moment of h_i.
func (s *System) Mu3(i int) float64 {
	m1 := s.DistMoment(1, i)
	m2 := s.DistMoment(2, i)
	return s.DistMoment(3, i) - 3*m1*m2 + 2*m1*m1*m1
}

// SlowestTimeConstant returns 1/λ_min — the natural horizon scale for
// sampling and bracketing.
func (s *System) SlowestTimeConstant() float64 { return 1 / s.poles[0] }
