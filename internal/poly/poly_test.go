package poly

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewTrims(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", p.Degree())
	}
	z := New(0, 0)
	if !z.IsZero() || z.Degree() != 0 {
		t.Fatalf("zero poly mishandled: %v", z)
	}
}

func TestEval(t *testing.T) {
	p := New(1, -3, 2) // 2x^2 - 3x + 1 = (2x-1)(x-1)
	cases := map[float64]float64{0: 1, 1: 0, 0.5: 0, 2: 3}
	for x, want := range cases {
		if got := p.Eval(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
	if got := p.EvalC(complex(1, 1)); cmplx.Abs(got-complex(-2, 1)) > 1e-12 {
		// 2(1+i)^2 - 3(1+i) + 1 = 2(2i) - 3 - 3i + 1 = -2 + i
		t.Errorf("EvalC = %v, want -2+i", got)
	}
}

func TestDerivative(t *testing.T) {
	p := New(5, 3, 2, 1) // x^3 + 2x^2 + 3x + 5
	d := p.Derivative()  // 3x^2 + 4x + 3
	want := New(3, 4, 3)
	if len(d.Coeffs) != len(want.Coeffs) {
		t.Fatalf("derivative = %v", d)
	}
	for i := range want.Coeffs {
		if d.Coeffs[i] != want.Coeffs[i] {
			t.Fatalf("derivative = %v, want %v", d, want)
		}
	}
	if c := New(7).Derivative(); !c.IsZero() {
		t.Errorf("derivative of constant = %v", c)
	}
}

func TestAddMulScale(t *testing.T) {
	p := New(1, 1)  // 1 + x
	q := New(-1, 1) // -1 + x
	sum := p.Add(q)
	if sum.Eval(3) != 6 {
		t.Errorf("Add wrong: %v", sum)
	}
	prod := p.Mul(q) // x^2 - 1
	if prod.Eval(3) != 8 || prod.Degree() != 2 {
		t.Errorf("Mul wrong: %v", prod)
	}
	s := p.Scale(2)
	if s.Eval(1) != 4 {
		t.Errorf("Scale wrong: %v", s)
	}
}

func TestQuadratic(t *testing.T) {
	r1, r2 := Quadratic(1, -5, 6) // roots 2, 3
	got := []float64{real(r1), real(r2)}
	sort.Float64s(got)
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-3) > 1e-12 {
		t.Errorf("Quadratic roots = %v", got)
	}
	// Complex pair: x^2 + 1.
	c1, c2 := Quadratic(1, 0, 1)
	if imag(c1) == 0 || cmplx.Abs(c1-cmplx.Conj(c2)) > 1e-12 {
		t.Errorf("complex roots = %v, %v", c1, c2)
	}
	// Catastrophic-cancellation case: tiny root must stay accurate.
	s1, s2 := Quadratic(1, -1e8, 1) // roots ~1e8 and ~1e-8
	small := math.Min(real(s1), real(s2))
	if math.Abs(small-1e-8) > 1e-14 {
		t.Errorf("small root = %v, want 1e-8", small)
	}
}

func TestRootsLinear(t *testing.T) {
	roots, err := New(6, -2).Roots() // 6 - 2x = 0 -> x = 3
	if err != nil || len(roots) != 1 || cmplx.Abs(roots[0]-3) > 1e-12 {
		t.Fatalf("roots = %v, err = %v", roots, err)
	}
}

func TestRootsCubicKnown(t *testing.T) {
	p := FromRoots(-1, -2, -3)
	roots, err := p.RealRoots()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-3, -2, -1}
	for i := range want {
		if math.Abs(roots[i]-want[i]) > 1e-8 {
			t.Errorf("roots = %v, want %v", roots, want)
		}
	}
}

func TestRootsComplexQuartic(t *testing.T) {
	// (x^2+1)(x^2+4): roots ±i, ±2i.
	p := New(1, 0, 1).Mul(New(4, 0, 1))
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 4 {
		t.Fatalf("got %d roots", len(roots))
	}
	mags := make([]float64, len(roots))
	for i, r := range roots {
		if math.Abs(real(r)) > 1e-7 {
			t.Errorf("root %v should be purely imaginary", r)
		}
		mags[i] = cmplx.Abs(r)
	}
	sort.Float64s(mags)
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if math.Abs(mags[i]-want[i]) > 1e-7 {
			t.Errorf("magnitudes = %v, want %v", mags, want)
		}
	}
	if _, err := p.RealRoots(); err == nil {
		t.Errorf("RealRoots should reject complex roots")
	}
}

func TestRootsWideSpread(t *testing.T) {
	// RC-like widely separated negative real roots.
	p := FromRoots(-1, -10, -100, -1000)
	roots, err := p.RealRoots()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1000, -100, -10, -1}
	for i := range want {
		if math.Abs(roots[i]-want[i]) > 1e-6*math.Abs(want[i]) {
			t.Errorf("roots = %v, want %v", roots, want)
		}
	}
}

func TestRootsZeroPoly(t *testing.T) {
	if _, err := New(0).Roots(); err == nil {
		t.Errorf("zero polynomial should error")
	}
}

func TestMonic(t *testing.T) {
	p := New(2, 4) // 2 + 4x
	m, err := p.Monic()
	if err != nil {
		t.Fatal(err)
	}
	if m.Coeffs[1] != 1 || m.Coeffs[0] != 0.5 {
		t.Errorf("Monic = %v", m)
	}
}

func TestString(t *testing.T) {
	if s := New(1, 0, 2).String(); s != "1 + 2*x^2" {
		t.Errorf("String = %q", s)
	}
	if s := New(0).String(); s != "0" {
		t.Errorf("zero String = %q", s)
	}
}

// Clustered roots (here 22.4, 25.1 and 28.2) leave the Aberth updates
// circling near 3.5e-13 relative, above the 1e-13 target; RealRoots
// must still return them. One of the inputs that made
// TestRootsRoundTripProperty fail in about one run in ten.
func TestRealRootsClusteredRoots(t *testing.T) {
	roots := []float64{-39.810717055349734, -28.183829312644537, -25.1188643150958, -22.387211385683404, -11.220184543019636}
	got, err := FromRoots(roots...).RealRoots()
	if err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if math.Abs(got[i]-roots[i]) > 1e-9*math.Abs(roots[i]) {
			t.Fatalf("root %d = %v, want %v", i, got[i], roots[i])
		}
	}
}

// Property: for random sets of distinct negative real roots (the RC
// case), FromRoots followed by RealRoots round-trips.
func TestRootsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		roots := make([]float64, n)
		used := map[int]bool{}
		for i := range roots {
			// Distinct magnitudes spread over two decades.
			k := rng.Intn(40)
			for used[k] {
				k = rng.Intn(40)
			}
			used[k] = true
			roots[i] = -math.Pow(10, float64(k)/20.0) // -1 .. -100
		}
		sort.Float64s(roots)
		p := FromRoots(roots...)
		got, err := p.RealRoots()
		if err != nil {
			return false
		}
		for i := range roots {
			if math.Abs(got[i]-roots[i]) > 1e-5*math.Abs(roots[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
