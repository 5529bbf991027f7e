package core

import (
	"math"
	"testing"
	"testing/quick"

	"elmore/internal/exact"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/topo"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

func TestSingleRCBounds(t *testing.T) {
	const r, c = 1000.0, 1e-12
	rc := r * c
	b := rctree.NewBuilder()
	b.MustRoot("n1", r, c)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	bd := a.Bounds[0]
	if !approx(bd.Elmore, rc, 1e-12) {
		t.Errorf("Elmore = %v", bd.Elmore)
	}
	if !approx(bd.Sigma, rc, 1e-12) {
		t.Errorf("Sigma = %v", bd.Sigma)
	}
	if bd.Lower != 0 { // mu - sigma = 0 exactly for single pole
		t.Errorf("Lower = %v, want 0", bd.Lower)
	}
	if !approx(bd.SinglePole, rc*math.Ln2, 1e-12) {
		t.Errorf("SinglePole = %v", bd.SinglePole)
	}
	if !approx(bd.Skewness, 2, 1e-9) {
		t.Errorf("Skewness = %v, want 2 (exponential)", bd.Skewness)
	}
	if !approx(bd.RiseTime, rc*math.Log(9), 1e-9) {
		t.Errorf("RiseTime = %v, want RC*ln9", bd.RiseTime)
	}
	// For a single RC: T_P = T_D = T_R = RC, so the PRH bounds collapse
	// to the exact value RC*ln2 at 50%.
	if !approx(bd.PRHTmin, rc*math.Ln2, 1e-9) || !approx(bd.PRHTmax, rc*math.Ln2, 1e-9) {
		t.Errorf("PRH bounds (%v, %v), want both %v", bd.PRHTmin, bd.PRHTmax, rc*math.Ln2)
	}
}

func TestAtLookup(t *testing.T) {
	a, err := Analyze(topo.Fig1Tree())
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.At("C5")
	if err != nil || b.Node != "C5" {
		t.Errorf("At(C5) = %+v, %v", b, err)
	}
	if _, err := a.At("nope"); err == nil {
		t.Errorf("unknown node should error")
	}
	if a.Moments() == nil {
		t.Errorf("Moments() returned nil")
	}
}

// The full bound ordering on random trees, against the exact engine:
// PRHTmin, Lower <= actual <= Elmore, PRHTmax ; SinglePole within PRH.
func TestBoundOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 20)
		a, err := Analyze(tree)
		if err != nil {
			return false
		}
		sys, err := exact.NewSystem(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			actual, err := sys.Delay50Step(i)
			if err != nil {
				return false
			}
			b := a.Bounds[i]
			tol := 1 + 1e-9
			if b.Lower > actual*tol {
				return false
			}
			if actual > b.Elmore*tol {
				return false
			}
			if b.PRHTmin > actual*tol {
				return false
			}
			if actual > b.PRHTmax*tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Paper Table I structure at the Fig. 1 circuit: t_max = T_D at the
// driving point, t_max > T_D at the leaves; lower bound clipped at 0
// where sigma > mu.
func TestFig1TableIStructure(t *testing.T) {
	a, err := Analyze(topo.Fig1Tree())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := a.At("C1")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c1.PRHTmax, c1.Elmore, 1e-9) {
		t.Errorf("driving point: t_max = %v, want T_D = %v", c1.PRHTmax, c1.Elmore)
	}
	for _, leaf := range []string{"C5", "C7"} {
		b, err := a.At(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if b.PRHTmax <= b.Elmore {
			t.Errorf("%s: t_max = %v should exceed T_D = %v", leaf, b.PRHTmax, b.Elmore)
		}
	}
	if c1.Lower != 0 {
		t.Errorf("C1 lower bound = %v, want 0 (sigma > mu near driving point)", c1.Lower)
	}
	c5, err := a.At("C5")
	if err != nil {
		t.Fatal(err)
	}
	if c5.Lower <= 0 {
		t.Errorf("C5 lower bound = %v, want > 0", c5.Lower)
	}
}

func TestPRHBoundFunctions(t *testing.T) {
	// Monotone in v; tmin <= tmax; NaN outside range.
	tp, td, tr := 1.58e-9, 0.55e-9, 0.55e-9
	prevMin, prevMax := -1.0, -1.0
	for _, v := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		lo := PRHTmin(tp, td, tr, v)
		hi := PRHTmax(tp, td, tr, v)
		if lo > hi {
			t.Errorf("v=%v: tmin %v > tmax %v", v, lo, hi)
		}
		if lo < prevMin || hi < prevMax {
			t.Errorf("v=%v: bounds not monotone", v)
		}
		prevMin, prevMax = lo, hi
	}
	if !math.IsNaN(PRHTmin(tp, td, tr, 1)) || !math.IsNaN(PRHTmax(tp, td, tr, -0.1)) {
		t.Errorf("out-of-range v should produce NaN")
	}
}

// The PRH waveform bounds bracket the exact step response at every
// percentage point (not just 50%).
func TestPRHWaveformBracketsExact(t *testing.T) {
	tree := topo.Fig1Tree()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C5", "C7"} {
		i := tree.MustIndex(name)
		td := a.Bounds[i].Elmore
		tr := a.Moments().TR(i)
		for _, v := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			actual, err := sys.CrossStep(i, v)
			if err != nil {
				t.Fatal(err)
			}
			lo := PRHTmin(a.TP, td, tr, v)
			hi := PRHTmax(a.TP, td, tr, v)
			if actual < lo*(1-1e-9) || actual > hi*(1+1e-9) {
				t.Errorf("%s v=%v: actual %v outside [%v, %v]", name, v, actual, lo, hi)
			}
		}
	}
}

func TestForInputSymmetricUpperIsElmore(t *testing.T) {
	a, err := Analyze(topo.Fig1Tree())
	if err != nil {
		t.Fatal(err)
	}
	i := a.Tree.MustIndex("C5")
	for _, sig := range []signal.Signal{
		signal.SaturatedRamp{Tr: 1e-9},
		signal.RaisedCosine{Tr: 2e-9},
		signal.Step{},
	} {
		ib, err := a.ForInput(i, sig)
		if err != nil {
			t.Fatalf("%v: %v", sig, err)
		}
		if !approx(ib.Upper, a.Bounds[i].Elmore, 1e-9) {
			t.Errorf("%v: Upper = %v, want T_D = %v", sig, ib.Upper, a.Bounds[i].Elmore)
		}
		if ib.Lower > ib.Upper {
			t.Errorf("%v: Lower %v > Upper %v", sig, ib.Lower, ib.Upper)
		}
	}
}

func TestForInputExponentialShiftsUpper(t *testing.T) {
	a, err := Analyze(topo.Fig1Tree())
	if err != nil {
		t.Fatal(err)
	}
	i := a.Tree.MustIndex("C5")
	tau := 1e-9
	ib, err := a.ForInput(i, signal.Exponential{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Bounds[i].Elmore + tau - tau*math.Ln2
	if !approx(ib.Upper, want, 1e-9) {
		t.Errorf("Upper = %v, want %v", ib.Upper, want)
	}
}

func TestForInputRejectsBimodal(t *testing.T) {
	a, err := Analyze(topo.Fig1Tree())
	if err != nil {
		t.Fatal(err)
	}
	bim, err := signal.NewPWL([]signal.Point{{T: 0, V: 0}, {T: 1e-9, V: 0.45}, {T: 2e-9, V: 0.55}, {T: 3e-9, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ForInput(0, bim); err == nil {
		t.Errorf("bimodal-derivative input should be rejected")
	}
	if _, err := a.ForInput(0, signal.SaturatedRamp{Tr: -1}); err == nil {
		t.Errorf("invalid signal should be rejected")
	}
}

// Corollary 2/3 against the exact engine: measured ramp delays respect
// the generalized bounds, and the output-skew prediction decays with
// rise time.
func TestForInputBoundsHoldExact(t *testing.T) {
	tree := topo.Fig1Tree()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	i := tree.MustIndex("C7")
	var prevSkew = math.Inf(1)
	for _, trr := range []float64{0.3e-9, 1e-9, 3e-9, 10e-9} {
		sig := signal.SaturatedRamp{Tr: trr}
		ib, err := a.ForInput(i, sig)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.Delay(i, sig, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d > ib.Upper*(1+1e-9) {
			t.Errorf("tr=%v: delay %v exceeds upper %v", trr, d, ib.Upper)
		}
		if d < ib.Lower-1e-15 {
			t.Errorf("tr=%v: delay %v below lower %v", trr, d, ib.Lower)
		}
		if ib.OutputSkew > prevSkew {
			t.Errorf("tr=%v: output skew %v not decreasing", trr, ib.OutputSkew)
		}
		prevSkew = ib.OutputSkew
	}
}

// Skewness is nonnegative everywhere, and the sigma-based transition
// estimate (Section III-B) essentially never *under*states the exact
// 10-90% rise time: sigma is inflated by the response's long right
// tail, so near driving points it overestimates (sometimes hugely),
// but it stays a safe edge-rate proxy. Empirically the ratio
// estimate/actual ranges from ~0.93 upward on random trees.
func TestRiseTimeEstimateProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 15)
		a, err := Analyze(tree)
		if err != nil {
			return false
		}
		sys, err := exact.NewSystem(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			if a.Bounds[i].Skewness < 0 {
				return false
			}
			rt, err := sys.RiseTimeStep(i, 0.1, 0.9)
			if err != nil {
				return false
			}
			if a.Bounds[i].RiseTime < 0.5*rt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// At far-from-the-driver nodes, where the response is dominated by a
// single pole, the sigma-based rise-time estimate is tight.
func TestRiseTimeEstimateTightAtLeaves(t *testing.T) {
	tree := topo.Line25Tree()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	i := tree.MustIndex(topo.Line25NodeC)
	rt, err := sys.RiseTimeStep(i, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	est := a.Bounds[i].RiseTime
	if est < 0.6*rt || est > 2*rt {
		t.Errorf("leaf rise-time estimate %v vs exact %v (ratio %v)", est, rt, est/rt)
	}
}

// WindowAt brackets the exact crossing at every threshold and is at
// least as tight as the raw PRH bracket at 50%.
func TestWindowAt(t *testing.T) {
	tree := topo.Fig1Tree()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C5", "C7"} {
		i := tree.MustIndex(name)
		for _, v := range []float64{0.1, 0.5, 0.9} {
			lo, hi, err := a.WindowAt(i, v)
			if err != nil {
				t.Fatal(err)
			}
			actual, err := sys.CrossStep(i, v)
			if err != nil {
				t.Fatal(err)
			}
			if actual < lo*(1-1e-9) || actual > hi*(1+1e-9) {
				t.Errorf("%s v=%v: %v outside [%v, %v]", name, v, actual, lo, hi)
			}
		}
		// 50% window no looser than the PRH bracket alone.
		lo, hi, err := a.WindowAt(i, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		b := a.Bounds[i]
		if lo < b.PRHTmin-1e-18 || hi > b.PRHTmax+1e-18 {
			t.Errorf("%s: 50%% window [%v,%v] looser than PRH [%v,%v]", name, lo, hi, b.PRHTmin, b.PRHTmax)
		}
		if hi > b.Elmore*(1+1e-12) {
			t.Errorf("%s: 50%% upper %v above Elmore %v", name, hi, b.Elmore)
		}
	}
	if _, _, err := a.WindowAt(0, 0); err == nil {
		t.Errorf("v=0 should error")
	}
	if _, _, err := a.WindowAt(0, 1); err == nil {
		t.Errorf("v=1 should error")
	}
}

// TestDegenerateZeroVarianceTree drives core.Analyze with a tree whose
// capacitances have all been zeroed after construction (mu2 == 0 and
// T_P == 0 at every node). Every bound must stay finite and obey the
// zero-variance contract: skewness 0, sigma/rise time 0, lower bound
// clamped to mu, PRH bounds collapsed to the instantaneous response.
func TestDegenerateZeroVarianceTree(t *testing.T) {
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", 100, 1e-12)
	b.MustAttach(n1, "n2", 50, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if err := tree.SetC(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range a.Bounds {
		for name, v := range map[string]float64{
			"Elmore": bd.Elmore, "Sigma": bd.Sigma, "Skewness": bd.Skewness,
			"Lower": bd.Lower, "SinglePole": bd.SinglePole,
			"PRHTmin": bd.PRHTmin, "PRHTmax": bd.PRHTmax, "RiseTime": bd.RiseTime,
		} {
			if math.IsNaN(v) {
				t.Errorf("node %s: %s is NaN", bd.Node, name)
			}
		}
		if bd.Skewness != 0 {
			t.Errorf("node %s: zero-variance skewness = %v, want 0", bd.Node, bd.Skewness)
		}
		if bd.Sigma != 0 || math.Signbit(bd.Sigma) {
			t.Errorf("node %s: zero-variance sigma = %v, want +0", bd.Node, bd.Sigma)
		}
		if bd.Lower != bd.Elmore {
			t.Errorf("node %s: lower bound %v, want mu = %v", bd.Node, bd.Lower, bd.Elmore)
		}
	}
	lo, hi, err := a.WindowAt(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Errorf("WindowAt on degenerate tree: [%v, %v]", lo, hi)
	}
}
