package elmore

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func buildDemo(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	n1 := b.MustRoot("drv", 100, 1e-12)
	n2 := b.MustAttach(n1, "wire", 200, 2e-12)
	b.MustAttach(n2, "load", 150, 3e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestFacadeWorkflow(t *testing.T) {
	tree := buildDemo(t)

	td := ElmoreDelays(tree)
	if len(td) != 3 || td[0] <= 0 {
		t.Fatalf("ElmoreDelays = %v", td)
	}

	rpt, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	load, err := rpt.At("load")
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewExactSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	li := tree.MustIndex("load")
	actual, err := sys.Delay50Step(li)
	if err != nil {
		t.Fatal(err)
	}
	if actual > load.Elmore || actual < load.Lower {
		t.Errorf("bounds violated: %v not in [%v, %v]", actual, load.Lower, load.Elmore)
	}

	// Generalized input: the measured ramp delay respects the
	// Corollary 2 bound from the facade.
	ramp := Ramp(2e-9)
	d, err := sys.Delay(li, ramp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := rpt.ForInput(li, ramp)
	if err != nil {
		t.Fatal(err)
	}
	if d > ib.Upper || d < ib.Lower {
		t.Errorf("generalized bounds violated: %v not in [%v, %v]", d, ib.Lower, ib.Upper)
	}
}

func TestFacadeNetlistRoundTrip(t *testing.T) {
	tree := buildDemo(t)
	deck := FormatNetlist(tree, "demo net")
	parsed, err := ParseNetlistString(deck)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Tree.N() != tree.N() {
		t.Fatalf("round trip size mismatch")
	}
	got := ElmoreDelays(parsed.Tree)
	want := ElmoreDelays(tree)
	for i := range want {
		j := parsed.Tree.MustIndex(tree.Name(i))
		if math.Abs(got[j]-want[i]) > 1e-15 {
			t.Errorf("Elmore mismatch at %s", tree.Name(i))
		}
	}
	if _, err := ParseNetlist(strings.NewReader(deck)); err != nil {
		t.Errorf("ParseNetlist(reader): %v", err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	tree := buildDemo(t)
	res, err := Simulate(tree, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(tree.MustIndex("load"))
	if err != nil {
		t.Fatal(err)
	}
	if final := w.V[len(w.V)-1]; math.Abs(final-1) > 1e-2 {
		t.Errorf("final voltage %v", final)
	}
}

func TestFacadeSignalsAndFormatting(t *testing.T) {
	for _, sig := range []Signal{Step(), Ramp(1e-9), SmoothRamp(1e-9), ExpEdge(1e-9)} {
		if sig.Eval(1e9) != 1 {
			t.Errorf("%v should settle to 1", sig)
		}
	}
	p, err := PWLSignal([]PWLPoint{{T: 0, V: 0}, {T: 1e-9, V: 1}})
	if err != nil || p.Eval(0.5e-9) != 0.5 {
		t.Errorf("PWLSignal wrong: %v %v", p, err)
	}
	if FormatSeconds(5.5e-10) != "550ps" || FormatOhms(100) != "100ohm" || FormatFarads(1e-12) != "1pF" {
		t.Errorf("formatters wrong")
	}
}

func TestFacadePiAndAWE(t *testing.T) {
	tree := buildDemo(t)
	pi, err := ReduceToPi(tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi.TotalC()-tree.TotalC()) > 1e-20 {
		t.Errorf("pi total C mismatch")
	}
	if _, err := ReduceNodeToPi(tree, tree.MustIndex("wire")); err != nil {
		t.Fatal(err)
	}

	ms, err := AWEMoments(tree, 6)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := FitAWE(ms, tree.MustIndex("load"), 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewExactSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := sys.Delay50Step(tree.MustIndex("load"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ap.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-actual) > 0.02*actual {
		t.Errorf("AWE delay %v vs exact %v", d, actual)
	}
	cs, err := Moments(tree)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SinglePoleModel(cs.Elmore(0))
	if err != nil || sp.Order() != 1 {
		t.Errorf("SinglePoleModel: %v %v", sp, err)
	}
}

func TestFacadeRegularize(t *testing.T) {
	b := NewBuilder()
	j := b.MustRoot("j", 100, 0)
	b.MustAttach(j, "l", 100, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExactSystem(tree); err == nil {
		t.Fatal("zero-cap tree should be rejected by the exact engine")
	}
	if _, err := NewExactSystem(RegularizeTree(tree, 0)); err != nil {
		t.Fatalf("regularized tree should work: %v", err)
	}
}

func TestFacadePRHelpers(t *testing.T) {
	if PRHTmin(1e-9, 0.5e-9, 0.2e-9, 0.5) > PRHTmax(1e-9, 0.5e-9, 0.2e-9, 0.5) {
		t.Errorf("PRH helpers inverted")
	}
}

// ExampleAnalyze demonstrates the quickstart flow from the package doc.
func ExampleAnalyze() {
	b := NewBuilder()
	n1 := b.MustRoot("n1", 100, 1e-12) // 100 ohm to the driver, 1 pF
	b.MustAttach(n1, "n2", 200, 2e-12)
	tree, _ := b.Build()

	rpt, _ := Analyze(tree)
	n2, _ := rpt.At("n2")
	fmt.Printf("T_D(n2) = %s (upper bound on the 50%% delay)\n", FormatSeconds(n2.Elmore))
	// Output: T_D(n2) = 700ps (upper bound on the 50% delay)
}
