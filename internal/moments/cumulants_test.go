package moments

import (
	"math"
	"testing"
	"testing/quick"

	"elmore/internal/awe"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// A single RC stage has the exponential impulse response (1/τ)e^{-t/τ},
// τ = RC, whose cumulants are κ_q = (q-1)! τ^q: T_D = τ, μ2 = τ² and
// μ3 = 2τ³. The Set sweep and the Incremental's root-path walk both
// serve them.
func TestCentralMomentsSingleRC(t *testing.T) {
	const r, c = 700.0, 3e-12
	rc := r * c
	tree := singleRC(t, r, c)
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	mu2, mu3, tr := inc.PathStats(0)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"T_D", s.Elmore(0), rc},
		{"mu2", s.Mu2(0), rc * rc},
		{"mu3", s.Mu3(0), 2 * rc * rc * rc},
		{"incremental T_D", inc.Elmore(0), rc},
		{"incremental mu2", mu2, rc * rc},
		{"incremental mu3", mu3, 2 * rc * rc * rc},
		{"incremental T_R", tr, rc},
	} {
		if !approx(c.got, c.want, 1e-12) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// The central moments formed from awe's raw transfer-function moments
// (μ2 = 2m2 − m1², μ3 = −6m3 + 6m1m2 − 2m1³, differences of large
// terms) match the cumulant sweep to roundoff: two independent routes
// to the same statistics.
func TestCentralMomentMatchesSpecialized(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 30)
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		raw, err := awe.ComputeMoments(tree, 3)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			m1, m2, m3 := raw.M(1, i), raw.M(2, i), raw.M(3, i)
			if !approx(s.Elmore(i), -m1, 1e-12) ||
				!approx(s.Mu2(i), 2*m2-m1*m1, 1e-9) ||
				!approx(s.Mu3(i), -6*m3+6*m1*m2-2*m1*m1*m1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Cumulants add along the signal path, and each stage's increment is a
// sum of non-negative terms, so T_D, μ2 and μ3 never decrease from a
// parent to its child: exactly, with no tolerance, also on trees whose
// R and C span seven decades each.
func TestCumulantsGrowDownstream(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.Random(seed, topo.RandomOptions{
			N: 60, RMin: 1e-2, RMax: 1e5, CMin: 1e-18, CMax: 1e-11,
		})
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			p := tree.Parent(i)
			if p == rctree.Source {
				continue
			}
			if !(s.Elmore(i) >= s.Elmore(p)) || !(s.Mu2(i) >= s.Mu2(p)) || !(s.Mu3(i) >= s.Mu3(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Exact cumulant additivity over a cascade (paper eq. 25 and Appendix
// B): the cumulants of node i minus those of its parent p equal the
// cumulants of h_{p,i}, the response at i to an impulse at p of the
// subtree hanging at p through i's resistor.
func TestCumulantAdditivityCascade(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 20)
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			p := tree.Parent(i)
			if p == rctree.Source {
				continue
			}
			// Subtree rooted at i's parent-side resistor, driven at p.
			sub, err := tree.Subtree(i)
			if err != nil {
				return false
			}
			subMs, err := Compute(sub)
			if err != nil {
				return false
			}
			j, ok := sub.Index(tree.Name(i))
			if !ok {
				return false
			}
			kappa := func(s *Set, i int) [3]float64 { return [3]float64{s.Elmore(i), s.Mu2(i), s.Mu3(i)} }
			ki, kp, kj := kappa(s, i), kappa(s, p), kappa(subMs, j)
			for q := range ki {
				want := ki[q] - kp[q]
				// Tolerance scales with the minuends: when the local
				// contribution is tiny, the subtraction above loses
				// precision even though the identity is exact.
				scale := ki[q] + kp[q] + 1e-300
				if math.Abs(kj[q]-want) > 1e-9*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
