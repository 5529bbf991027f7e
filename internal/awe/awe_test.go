package awe

import (
	"math"
	"testing"
	"testing/quick"

	"elmore/internal/exact"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

func singleRCSet(t *testing.T, r, c float64, order int) *Moments {
	t.Helper()
	b := rctree.NewBuilder()
	b.MustRoot("n1", r, c)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ComputeMoments(tree, order)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestOnePoleRecoversSingleRC(t *testing.T) {
	const r, c = 1000.0, 1e-12
	rc := r * c
	ms := singleRCSet(t, r, c, 2)
	a, err := FitNode(ms, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Order() != 1 || !approx(a.Poles[0], 1/rc, 1e-9) {
		t.Fatalf("poles = %v, want [%v]", a.Poles, 1/rc)
	}
	if !approx(a.DCGain(), 1, 1e-9) {
		t.Errorf("DC gain = %v", a.DCGain())
	}
	d, err := a.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, rc*math.Ln2, 1e-9) {
		t.Errorf("delay = %v, want %v", d, rc*math.Ln2)
	}
}

func TestFitErrors(t *testing.T) {
	ms := singleRCSet(t, 1000, 1e-12, 2)
	if _, err := FitNode(ms, 0, 0); err == nil {
		t.Errorf("order 0 should error")
	}
	if _, err := FitNode(ms, 0, 3); err == nil {
		t.Errorf("too few moments should error")
	}
	if _, err := SinglePole(0); err == nil {
		t.Errorf("SinglePole(0) should error")
	}
	if _, err := FitStable(ms, 0, 0); err == nil {
		t.Errorf("FitStable order 0 should error")
	}
}

func TestSinglePoleModel(t *testing.T) {
	td := 1.2e-9
	a, err := SinglePole(td)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, td*math.Ln2, 1e-9) {
		t.Errorf("single-pole delay = %v, want ln2*T_D = %v", d, td*math.Ln2)
	}
	if !approx(a.Moment(1), -td, 1e-9) {
		t.Errorf("m1 = %v, want %v", a.Moment(1), -td)
	}
}

// A q-pole fit must reproduce the first 2q moments it was fitted to.
func TestMomentMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 20)
		ms, err := ComputeMoments(tree, 6)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			for _, q := range []int{1, 2, 3} {
				a, err := FitNode(ms, i, q)
				if err != nil {
					continue // occasional unstable high-order fits are expected
				}
				for k := 0; k < 2*q; k++ {
					if !approx(a.Moment(k), ms.M(k, i), 1e-5) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Exact poles of a 2-node tree are recovered by a 2-pole fit.
func TestTwoPoleRecoversExactPoles(t *testing.T) {
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", 100, 1e-12)
	b.MustAttach(n1, "n2", 300, 2e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ComputeMoments(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		a, err := FitNode(ms, i, 2)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for j := 0; j < 2; j++ {
			if !approx(a.Poles[j], sys.Poles()[j], 1e-6) {
				t.Errorf("node %d pole %d = %v, want %v", i, j, a.Poles[j], sys.Poles()[j])
			}
		}
		// The 2-pole model of a 2-pole system is exact everywhere.
		for _, tt := range []float64{1e-10, 5e-10, 2e-9} {
			if !approx(a.VStep(tt), sys.VStep(i, tt), 1e-6) {
				t.Errorf("node %d VStep(%v) = %v, want %v", i, tt, a.VStep(tt), sys.VStep(i, tt))
			}
		}
	}
}

// Higher-order AWE delays beat the Elmore estimate against the exact
// 50% delay on the Fig. 1 circuit (the paper's motivation for moment
// matching when more moments are available).
func TestHigherOrderBeatsElmoreFig1(t *testing.T) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ComputeMoments(tree, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C5", "C7"} {
		i := tree.MustIndex(name)
		actual, err := sys.Delay50Step(i)
		if err != nil {
			t.Fatal(err)
		}
		a, err := FitStable(ms, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := a.Delay50()
		if err != nil {
			t.Fatal(err)
		}
		elmoreErr := math.Abs(-ms.M(1, i) - actual)
		aweErr := math.Abs(d - actual)
		if aweErr > elmoreErr {
			t.Errorf("%s: order-%d AWE error %v worse than Elmore error %v",
				name, a.Order(), aweErr, elmoreErr)
		}
		if aweErr > 0.05*actual {
			t.Errorf("%s: AWE delay %v vs actual %v (>5%% off)", name, d, actual)
		}
	}
}

func TestFitStableFallsBack(t *testing.T) {
	// A single-RC node has exactly one pole; order-3 must fall back.
	ms := singleRCSet(t, 1000, 1e-12, 6)
	a, err := FitStable(ms, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Order() != 1 {
		t.Errorf("order = %d, want fallback to 1", a.Order())
	}
}

func TestCrossStepErrors(t *testing.T) {
	a, err := SinglePole(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CrossStep(0); err == nil {
		t.Errorf("level 0 should error")
	}
	if _, err := a.CrossStep(2); err == nil {
		t.Errorf("level above DC gain should error")
	}
}

func TestImpulseNonNegativeSingle(t *testing.T) {
	a, err := SinglePole(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Impulse(-1) != 0 {
		t.Errorf("Impulse before t=0 should be 0")
	}
	if a.Impulse(0) <= 0 || a.Impulse(1e-9) <= 0 {
		t.Errorf("Impulse should be positive")
	}
}
