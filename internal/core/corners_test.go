package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elmore/internal/exact"
	"elmore/internal/moments"
	"elmore/internal/topo"
)

func TestCornerOptionsValidation(t *testing.T) {
	tree := topo.Fig1Tree()
	for _, o := range []CornerOptions{{RRel: -0.1}, {RRel: 1}, {CRel: -0.1}, {CRel: 1.5}} {
		if _, err := CornerIntervals(tree, o); err == nil {
			t.Errorf("options %+v should fail", o)
		}
	}
	if _, err := CornerIntervals(tree, CornerOptions{}); err != nil {
		t.Errorf("zero-variation box should be fine: %v", err)
	}
}

func TestCornerZeroVariationMatchesNominal(t *testing.T) {
	tree := topo.Fig1Tree()
	iv, err := CornerIntervals(tree, CornerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := range iv {
		if !approx(iv[i].Upper, an.Bounds[i].Elmore, 1e-12) {
			t.Errorf("%s: upper %v != nominal Elmore %v", iv[i].Node, iv[i].Upper, an.Bounds[i].Elmore)
		}
		if !approx(iv[i].Lower, an.Bounds[i].Lower, 1e-12) {
			t.Errorf("%s: lower %v != nominal lower %v", iv[i].Node, iv[i].Lower, an.Bounds[i].Lower)
		}
	}
}

// Monte-Carlo validation: the guaranteed interval contains the exact
// delay at random parameter points inside the variation box (including
// the extreme corners).
func TestCornerIntervalsContainRandomPoints(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 12)
		opts := CornerOptions{RRel: 0.15, CRel: 0.2}
		iv, err := CornerIntervals(tree, opts)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for trial := 0; trial < 4; trial++ {
			perturbed := tree.Clone()
			for i := 0; i < perturbed.N(); i++ {
				var fr, fc float64
				if trial == 0 {
					fr, fc = 1+opts.RRel, 1+opts.CRel // slow corner
				} else if trial == 1 {
					fr, fc = 1-opts.RRel, 1-opts.CRel // fast corner
				} else {
					fr = 1 + opts.RRel*(2*rng.Float64()-1)
					fc = 1 + opts.CRel*(2*rng.Float64()-1)
				}
				if err := perturbed.SetR(i, tree.R(i)*fr); err != nil {
					return false
				}
				if err := perturbed.SetC(i, tree.C(i)*fc); err != nil {
					return false
				}
			}
			sys, err := exact.NewSystem(perturbed)
			if err != nil {
				return false
			}
			for i := 0; i < perturbed.N(); i++ {
				d, err := sys.Delay50Step(i)
				if err != nil {
					return false
				}
				if d > iv[i].Upper*(1+1e-9) || d < iv[i].Lower*(1-1e-9)-1e-18 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The mu2 monotonicity the Lower derivation relies on: increasing any
// single resistance or capacitance never decreases mu2 at any node.
func TestMu2ElementwiseMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 15)
		ms, err := moments.Compute(tree)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0xabcd))
		elem := rng.Intn(tree.N())
		bumped := tree.Clone()
		if rng.Intn(2) == 0 {
			if err := bumped.SetR(elem, tree.R(elem)*1.25); err != nil {
				return false
			}
		} else {
			if err := bumped.SetC(elem, tree.C(elem)*1.25+1e-18); err != nil {
				return false
			}
		}
		ms2, err := moments.Compute(bumped)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			if ms2.Mu2(i) < ms.Mu2(i)*(1-1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCornerIntervalWidensWithVariation(t *testing.T) {
	tree := topo.Line25Tree()
	narrow, err := CornerIntervals(tree, CornerOptions{RRel: 0.05, CRel: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := CornerIntervals(tree, CornerOptions{RRel: 0.25, CRel: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i := range narrow {
		if wide[i].Upper < narrow[i].Upper || wide[i].Lower > narrow[i].Lower {
			t.Fatalf("%s: wider box should widen the interval", narrow[i].Node)
		}
	}
}
