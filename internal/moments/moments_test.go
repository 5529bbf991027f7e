package moments

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

// singleRC returns the one-node tree: source -R- node(C).
func singleRC(t *testing.T, r, c float64) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder()
	b.MustRoot("n1", r, c)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// twoNodeChain returns source -R1- n1(C1) -R2- n2(C2).
func twoNodeChain(t *testing.T, r1, c1, r2, c2 float64) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", r1, c1)
	b.MustAttach(n1, "n2", r2, c2)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSingleRCMoments(t *testing.T) {
	const r, c = 1000.0, 1e-12
	tree := singleRC(t, r, c)
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	rc := r * c
	if got := s.Elmore(0); !approx(got, rc, 1e-12) {
		t.Errorf("Elmore = %v, want %v", got, rc)
	}
	// Exponential density: mu2 = (RC)^2, mu3 = 2 (RC)^3, skew = 2.
	if got := s.Mu2(0); !approx(got, rc*rc, 1e-12) {
		t.Errorf("mu2 = %v, want %v", got, rc*rc)
	}
	if got := s.Mu3(0); !approx(got, 2*rc*rc*rc, 1e-12) {
		t.Errorf("mu3 = %v, want %v", got, 2*rc*rc*rc)
	}
	if got := s.Skewness(0); !approx(got, 2, 1e-12) {
		t.Errorf("skew = %v, want 2", got)
	}
	if got := s.Sigma(0); !approx(got, rc, 1e-12) {
		t.Errorf("sigma = %v, want %v", got, rc)
	}
}

func TestAppendixBFormulas(t *testing.T) {
	// Paper eq. B3: T_D(1) = -m1(1) = R1(C1+C2), T_D(2) = R1(C1+C2) +
	// R2 C2, and eq. 28/29 for the central moments at node 1.
	const r1, c1, r2, c2 = 120.0, 2e-12, 340.0, 0.7e-12
	tree := twoNodeChain(t, r1, c1, r2, c2)
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Elmore(0), r1*(c1+c2); !approx(got, want, 1e-12) {
		t.Errorf("T_D(1) = %v, want %v", got, want)
	}
	if got, want := s.Elmore(1), r1*(c1+c2)+r2*c2; !approx(got, want, 1e-12) {
		t.Errorf("T_D(2) = %v, want %v", got, want)
	}
	wantMu2 := r1*r1*(c1*c1+c2*c2) + 2*r1*r1*c1*c2 + 2*r1*r2*c2*c2
	if got := s.Mu2(0); !approx(got, wantMu2, 1e-12) {
		t.Errorf("mu2(1) = %v, want %v", got, wantMu2)
	}
	wantMu3 := 6*r1*r2*c2*c2*(r1*(c1+c2)+r2*c2) + 2*math.Pow(r1*(c1+c2), 3)
	if got := s.Mu3(0); !approx(got, wantMu3, 1e-12) {
		t.Errorf("mu3(1) = %v, want %v", got, wantMu3)
	}
}

func TestElmoreFig1Calibration(t *testing.T) {
	tree := topo.Fig1Tree()
	td := ElmoreDelays(tree)
	cases := map[string]float64{
		"C1": 0.55e-9,
		"C5": 1.20e-9,
		"C7": 0.75e-9,
	}
	for name, want := range cases {
		if got := td[tree.MustIndex(name)]; !approx(got, want, 1e-9) {
			t.Errorf("T_D(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestElmoreLine25Calibration(t *testing.T) {
	tree := topo.Line25Tree()
	td := ElmoreDelays(tree)
	if got := td[tree.MustIndex(topo.Line25NodeA)]; !approx(got, 0.02e-9, 1e-9) {
		t.Errorf("T_D(A) = %v, want 0.02ns", got)
	}
	if got := td[tree.MustIndex(topo.Line25NodeC)]; !approx(got, 1.56e-9, 1e-9) {
		t.Errorf("T_D(C) = %v, want 1.56ns", got)
	}
}

func TestElmoreMatchesDirectOracle(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 40)
		td := ElmoreDelays(tree)
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			direct := ElmoreDelayDirect(tree, i)
			if !approx(td[i], direct, 1e-10) || !approx(s.Elmore(i), direct, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 (paper): mu2 >= 0 and mu3 >= 0 at every node of any RC tree,
// hence skewness gamma >= 0. The cumulant sweep adds only non-negative
// terms, so the signs hold exactly, with no tolerance.
func TestLemma2NonnegativeSkew(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 60)
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			if !(s.Mu2(i) >= 0) || !(s.Mu3(i) >= 0) {
				return false
			}
			if s.Skewness(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Section IV-B: along any root-to-leaf path, mu2 and mu3 are
// nondecreasing (central moments add under convolution with each
// further segment, and each increment is nonnegative). The sweep adds
// each increment to the parent's value, so this holds exactly.
func TestCentralMomentsGrowDownstream(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 60)
		s, err := Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			p := tree.Parent(i)
			if p == rctree.Source {
				continue
			}
			if !(s.Mu2(i) >= s.Mu2(p)) || !(s.Mu3(i) >= s.Mu3(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMonotoneDownstream(t *testing.T) {
	// The Elmore delay itself must strictly increase downstream.
	tree := topo.Line25Tree()
	td := ElmoreDelays(tree)
	for i := 1; i < tree.N(); i++ {
		if td[i] <= td[i-1] {
			t.Fatalf("T_D not increasing along line: td[%d]=%v td[%d]=%v", i-1, td[i-1], i, td[i])
		}
	}
}

// The zero-variance contract: μ2 of either zero sign gives Sigma = +0
// and Skewness = 0. A negative μ2 is not clamped: the sweep cannot
// produce one, and if one is handed in, Sigma says NaN so the Lemma 2
// check downstream reports it.
func TestSigmaZeroClamp(t *testing.T) {
	tree := singleRC(t, 1, 1e-12)
	for _, mu2 := range []float64{0, math.Copysign(0, -1)} {
		if got := Sigma(mu2, tree, 0); math.Float64bits(got) != 0 {
			t.Errorf("Sigma(%v) = %v, want +0", mu2, got)
		}
		if got := Skewness(mu2, 1); got != 0 {
			t.Errorf("Skewness on zero variance = %v, want 0", got)
		}
	}
	if got := Sigma(-1e-40, tree, 0); !math.IsNaN(got) {
		t.Errorf("Sigma(-1e-40) = %v, want NaN (no clamp)", got)
	}
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tree() != tree {
		t.Errorf("Tree accessor wrong")
	}
}

// The swept recurrence must agree with the O(N^2) definitional oracle
// regardless of topology.
func TestCompiledMatchesDirectOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		tree := topo.RandomSmall(seed, 40)
		s, err := Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.N(); i++ {
			want := ElmoreDelayDirect(tree, i)
			got := s.Elmore(i)
			if diff := got - want; diff > 1e-18+1e-12*want || diff < -(1e-18+1e-12*want) {
				t.Fatalf("seed %d node %d: Elmore %v, direct %v", seed, i, got, want)
			}
		}
	}
}

// Moment sets computed before and after a SetR round-trip must agree:
// the kernels must read the current element values, never stale ones.
func TestComputeSeesMutations(t *testing.T) {
	tree := topo.Random(4, topo.RandomOptions{N: 200})
	before, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	orig := tree.R(17)
	if err := tree.SetR(17, orig*3); err != nil {
		t.Fatal(err)
	}
	during, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if during.Elmore(17) == before.Elmore(17) {
		t.Fatal("moments did not observe SetR (stale element values?)")
	}
	if err := tree.SetR(17, orig); err != nil {
		t.Fatal(err)
	}
	after, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if after.Elmore(i) != before.Elmore(i) {
			t.Fatalf("node %d: Elmore not restored after SetR round-trip", i)
		}
	}
}

func ExampleElmoreDelays() {
	td := ElmoreDelays(topo.Fig1Tree())
	tree := topo.Fig1Tree()
	i, _ := tree.Index("C5")
	fmt.Printf("T_D(C5) = %.2fns\n", td[i]*1e9)
	// Output: T_D(C5) = 1.20ns
}
