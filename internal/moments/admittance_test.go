package moments

import (
	"math"
	"testing"
	"testing/quick"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func TestCapThroughSeriesR(t *testing.T) {
	// Y of C through series R: y1 = C, y2 = -R C^2, y3 = R^2 C^3.
	const r, c = 250.0, 3e-12
	y := CapAdmittance(c).SeriesR(r)
	if !approx(y.Y1, c, 1e-12) {
		t.Errorf("y1 = %v, want %v", y.Y1, c)
	}
	if !approx(y.Y2, -r*c*c, 1e-12) {
		t.Errorf("y2 = %v, want %v", y.Y2, -r*c*c)
	}
	if !approx(y.Y3, r*r*c*c*c, 1e-12) {
		t.Errorf("y3 = %v, want %v", y.Y3, r*r*c*c*c)
	}
}

func TestParallel(t *testing.T) {
	a := Admittance{1, 2, 3}
	b := Admittance{10, 20, 30}
	got := a.Parallel(b)
	if got != (Admittance{11, 22, 33}) {
		t.Errorf("Parallel = %+v", got)
	}
}

// Input admittance moments must agree with the transfer-function route:
// for a single-root tree, Y_in(s) = (1 - H_root(s)) / R_root, so
// y_q = -m_q(root)/R_root for q >= 1, with the raw moments formed from
// the cumulants: m1 = -T_D, m2 = (μ2 + T_D²)/2 and
// m3 = -(μ3 + 3·T_D·μ2 + T_D³)/6.
func TestInputAdmittanceVersusMoments(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 40)
		roots := tree.Roots()
		if len(roots) != 1 {
			return true // generator builds single-root trees; skip others
		}
		root := roots[0]
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		td, mu2, mu3 := s.Elmore(root), s.Mu2(root), s.Mu3(root)
		m1, m2, m3 := -td, (mu2+td*td)/2, -(mu3+3*td*mu2+td*td*td)/6
		y := InputAdmittance(tree)
		r := tree.R(root)
		return approx(y.Y1, -m1/r, 1e-9) &&
			approx(y.Y2, -m2/r, 1e-9) &&
			approx(y.Y3, -m3/r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// y1 of any downstream admittance equals the downstream capacitance.
func TestY1IsDownstreamCap(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 50)
		down := tree.DownstreamC()
		ys := DownstreamAdmittances(tree)
		for i := 0; i < tree.N(); i++ {
			if !approx(ys[i].Y1, down[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestInputAdmittanceMultiRoot(t *testing.T) {
	b := rctree.NewBuilder()
	b.MustRoot("a", 100, 1e-12)
	b.MustRoot("b", 200, 2e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	y := InputAdmittance(tree)
	want := CapAdmittance(1e-12).SeriesR(100).Parallel(CapAdmittance(2e-12).SeriesR(200))
	if !approx(y.Y1, want.Y1, 1e-12) || !approx(y.Y2, want.Y2, 1e-12) || !approx(y.Y3, want.Y3, 1e-12) {
		t.Errorf("multi-root admittance = %+v, want %+v", y, want)
	}
}

// Admittance moment signs for any RC tree: y1 > 0, y2 < 0, y3 > 0
// (alternating, from the interlacing negative poles/zeros of RC
// driving-point admittances).
func TestAdmittanceSignPattern(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 50)
		y := InputAdmittance(tree)
		return y.Y1 > 0 && y.Y2 < 0 && y.Y3 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPRHTermsOracles(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 40)
		p, err := Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(p.TP(), TPDirect(tree), 1e-10) {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			if !approx(p.TR(i), TRDirect(tree, i), 1e-10) {
				return false
			}
			if !approx(p.PathResistance(i), tree.PathResistance(i), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	// Log-uniform trees whose R and C each span seven decades: the
	// regime where a difference-of-subtree-sums T_R loses digits. The
	// one-sweep recurrence adds only nonnegative terms, so it must stay
	// within 1e-12 of the definition.
	for seed := int64(1); seed <= 40; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{
			N: 20 + int(seed)*5, RMin: 1e-2, RMax: 1e5, CMin: 1e-18, CMax: 1e-11,
			Chaininess: 0.2 + 0.015*float64(seed),
		})
		p, err := Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.N(); i++ {
			if got, want := p.TR(i), TRDirect(tree, i); !approx(got, want, 1e-12) {
				t.Fatalf("seed %d node %d: TR %v, TRDirect %v (rel err %.2g)", seed, i, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

// PRH invariants used by the bound formulas: T_R(i) <= T_D(i) <= T_P,
// and at any node T_R > 0.
func TestPRHOrdering(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 50)
		p, err := Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.N(); i++ {
			tr := p.TR(i)
			if tr <= 0 {
				return false
			}
			if tr > p.Elmore(i)*(1+1e-12) {
				return false
			}
			if p.Elmore(i) > p.TP()*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPRHFig1Values(t *testing.T) {
	// For the calibrated Fig. 1 circuit, T_R at the driving point equals
	// T_D there (every R_k1 is the root resistance), which is what makes
	// PRH t_max collapse to T_D at the driving point (paper Table I).
	tree := topo.Fig1Tree()
	p, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	c1 := tree.MustIndex("C1")
	if !approx(p.TR(c1), p.Elmore(c1), 1e-12) {
		t.Errorf("T_R(C1) = %v, want T_D(C1) = %v", p.TR(c1), p.Elmore(c1))
	}
	if p.TP() <= p.Elmore(c1) {
		t.Errorf("T_P = %v should exceed T_D(C1) = %v", p.TP(), p.Elmore(c1))
	}
}
