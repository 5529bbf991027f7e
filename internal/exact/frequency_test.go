package exact

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"elmore/internal/moments"
	"elmore/internal/topo"
)

func TestHSingleRC(t *testing.T) {
	const r, c = 1000.0, 1e-12
	rc := r * c
	s := singleRC(t, r, c)
	// H(s) = 1/(1 + s rc).
	for _, om := range []float64{0, 1 / rc, 10 / rc} {
		got := s.H(0, complex(0, om))
		want := 1 / (1 + complex(0, om*rc))
		if cmplx.Abs(got-want) > 1e-12 {
			t.Errorf("H(j%v) = %v, want %v", om, got, want)
		}
	}
	bw, err := s.Bandwidth3dB(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(bw, 1/rc, 1e-9) {
		t.Errorf("3dB bandwidth = %v, want %v", bw, 1/rc)
	}
}

// The Taylor coefficients of H about s=0 are the path-traced moments:
// H(s) ≈ 1 + m1 s + m2 s^2 for small real s, with the raw moments
// m1 = -T_D and m2 = (μ2 + T_D²)/2 formed from the cumulant set. A strong cross-check of
// the moment engine against the eigen engine in a different domain.
func TestHTaylorMatchesMoments(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 15)
		sys, err := NewSystem(tree)
		if err != nil {
			return false
		}
		ms, err := moments.Compute(tree)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			// Pick s small relative to the fastest pole.
			s0 := 1e-4 * sys.Poles()[0]
			h := real(sys.H(i, complex(s0, 0)))
			td := ms.Elmore(i)
			m1, m2 := -td, (ms.Mu2(i)+td*td)/2
			taylor := 1 + m1*s0 + m2*s0*s0
			if math.Abs(h-taylor) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Magnitude is 1 at DC, monotone nonincreasing in omega, and the
// bandwidth never exceeds the slowest pole by orders of magnitude at
// far-downstream nodes.
func TestMagnitudeShape(t *testing.T) {
	tree := topo.Line25Tree()
	s, err := NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	i := tree.MustIndex(topo.Line25NodeC)
	if !approx(s.Magnitude(i, 0), 1, 1e-9) {
		t.Errorf("DC magnitude = %v", s.Magnitude(i, 0))
	}
	prev := math.Inf(1)
	for _, om := range []float64{1e6, 1e8, 1e9, 1e10, 1e11} {
		m := s.Magnitude(i, om)
		if m > prev*(1+1e-12) {
			t.Errorf("magnitude increased at omega=%v", om)
		}
		prev = m
	}
	bw, err := s.Bandwidth3dB(i)
	if err != nil {
		t.Fatal(err)
	}
	// Folk relation: bandwidth ~ 1/T_D within a small factor for
	// dominant-pole nodes.
	td := s.Mean(i)
	if bw < 0.1/td || bw > 10/td {
		t.Errorf("bandwidth %v vs 1/T_D %v out of expected range", bw, 1/td)
	}
}
