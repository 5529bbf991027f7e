package awe

import (
	"math"
	"testing"

	"elmore/internal/exact"
	"elmore/internal/signal"
	"elmore/internal/topo"
)

func TestStepIntegralSinglePole(t *testing.T) {
	td := 1e-9
	a, err := SinglePole(td)
	if err != nil {
		t.Fatal(err)
	}
	// integral (1 - e^{-t/td}) = t - td (1 - e^{-t/td}).
	for _, tt := range []float64{0.3e-9, 1e-9, 5e-9} {
		want := tt - td*(1-math.Exp(-tt/td))
		if got := a.StepIntegral(tt); !approx(got, want, 1e-12) {
			t.Errorf("StepIntegral(%v) = %v, want %v", tt, got, want)
		}
	}
	if a.StepIntegral(-1) != 0 {
		t.Errorf("negative time should give 0")
	}
}

// A full-order AWE fit of the Fig. 1 circuit reproduces the exact
// engine's ramp responses and delays almost perfectly — they are both
// pole/residue forms of (nearly) the same system.
func TestRampResponsesMatchExact(t *testing.T) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ComputeMoments(tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	node := tree.MustIndex("C5")
	a, err := FitStable(ms, node, 4)
	if err != nil {
		t.Fatal(err)
	}
	ramp := signal.SaturatedRamp{Tr: 1e-9}
	p, err := signal.ToPWL(ramp, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.3e-9, 1e-9, 2e-9, 4e-9} {
		if got, want := a.VPWL(p, tt), sys.VPWL(node, p, tt); !approx(got, want, 1e-3) {
			t.Errorf("VPWL(%v) = %v, want %v", tt, got, want)
		}
	}
	dA, err := a.Delay(ramp, 0)
	if err != nil {
		t.Fatal(err)
	}
	dE, err := sys.Delay(node, ramp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(dA, dE, 1e-3) {
		t.Errorf("ramp delay: awe %v vs exact %v", dA, dE)
	}
}

func TestDelayDispatch(t *testing.T) {
	a, err := SinglePole(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	dStep, err := a.Delay(signal.Step{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(dStep, 1e-9*math.Ln2, 1e-9) {
		t.Errorf("step delay = %v", dStep)
	}
	// Ramp delay exceeds step delay and stays below T_D (the single-pole
	// model inherits the bound behaviour).
	dRamp, err := a.Delay(signal.SaturatedRamp{Tr: 2e-9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dRamp <= dStep || dRamp > 1e-9 {
		t.Errorf("ramp delay %v out of (step %v, T_D 1n]", dRamp, dStep)
	}
	// Smooth inputs go through PWL conversion.
	if _, err := a.Delay(signal.RaisedCosine{Tr: 1e-9}, 64); err != nil {
		t.Errorf("raised cosine: %v", err)
	}
}
