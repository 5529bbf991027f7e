// Integration tests exercising complete workflows across the public
// API: deck -> analysis -> three independent delay measurements that
// must agree, on several circuit families.
package elmore_test

import (
	"math"
	"testing"

	"elmore"
	"elmore/internal/topo"
)

func approxI(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

// Full pipeline: build -> serialize -> re-parse -> analyze -> verify the
// bound chain with both ground-truth engines on several families.
func TestEndToEndConsistency(t *testing.T) {
	families := map[string]*elmore.Tree{
		"fig1":     topo.Fig1Tree(),
		"line25":   topo.Line25Tree(),
		"star":     topo.Star(3, 4, 150, 20e-15),
		"balanced": topo.Balanced(3, 3, 100, 25e-15),
		"random":   topo.Random(99, topo.RandomOptions{N: 18}),
	}
	for name, tree := range families {
		t.Run(name, func(t *testing.T) {
			// Round-trip through the netlist format.
			deck := elmore.FormatNetlist(tree, name)
			parsed, err := elmore.ParseNetlistString(deck)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			tree := parsed.Tree

			rpt, err := elmore.Analyze(tree)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := elmore.NewExactSystem(tree)
			if err != nil {
				t.Fatal(err)
			}
			// Size the horizon from the analysis and the step from the
			// horizon; crossings near the driving point can be far below
			// the step, so comparisons carry a dt-sized absolute slack.
			maxTD := 0.0
			for _, b := range rpt.Bounds {
				if b.Elmore > maxTD {
					maxTD = b.Elmore
				}
			}
			horizon := 10 * maxTD
			dt := horizon / 65536
			res, err := elmore.Simulate(tree, elmore.SimOptions{TEnd: horizon, DT: dt})
			if err != nil {
				t.Fatal(err)
			}
			adaptiveRes, err := elmore.SimulateAdaptive(tree, elmore.SimOptions{TEnd: horizon}, 1e-6)
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < tree.N(); i++ {
				exactD, err := sys.Delay50Step(i)
				if err != nil {
					t.Fatal(err)
				}
				w, err := res.Waveform(i)
				if err != nil {
					t.Fatal(err)
				}
				simD, ok := w.Cross(0.5)
				if !ok {
					t.Fatalf("node %d: sim never crossed 50%%", i)
				}
				wa, err := adaptiveRes.Waveform(i)
				if err != nil {
					t.Fatal(err)
				}
				adaD, ok := wa.Cross(0.5)
				if !ok {
					t.Fatalf("node %d: adaptive sim never crossed 50%%", i)
				}
				// Three independent measurements agree (up to the
				// fixed grid's resolution for sub-step crossings).
				if !approxI(exactD, simD, 5e-3) && math.Abs(exactD-simD) > 2*dt {
					t.Errorf("node %s: exact %v vs sim %v", tree.Name(i), exactD, simD)
				}
				if !approxI(exactD, adaD, 5e-3) && math.Abs(exactD-adaD) > 2*dt {
					t.Errorf("node %s: exact %v vs adaptive %v", tree.Name(i), exactD, adaD)
				}
				// And the paper's bound chain brackets all of them.
				b := rpt.Bounds[i]
				for _, d := range []float64{exactD, simD, adaD} {
					if d > b.Elmore*(1+1e-2) {
						t.Errorf("node %s: delay %v above Elmore %v", tree.Name(i), d, b.Elmore)
					}
					if d < b.Lower*(1-1e-2)-1e-15 {
						t.Errorf("node %s: delay %v below lower %v", tree.Name(i), d, b.Lower)
					}
				}
			}
		})
	}
}

// AWE, pi-model and moment views of the same circuit stay mutually
// consistent through the public API.
func TestReducedModelsConsistency(t *testing.T) {
	tree := topo.Fig1Tree()
	ms, err := elmore.AWEMoments(tree, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := elmore.NewExactSystem(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C5", "C7"} {
		i := tree.MustIndex(name)
		ap, err := elmore.FitAWE(ms, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		exactD, err := sys.Delay50Step(i)
		if err != nil {
			t.Fatal(err)
		}
		aweD, err := ap.Delay50()
		if err != nil {
			t.Fatal(err)
		}
		if !approxI(aweD, exactD, 5e-2) {
			t.Errorf("%s: AWE %v vs exact %v", name, aweD, exactD)
		}
	}
	pi, err := elmore.ReduceToPi(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !approxI(pi.TotalC(), tree.TotalC(), 1e-12) {
		t.Errorf("pi total C %v vs tree %v", pi.TotalC(), tree.TotalC())
	}
}

// Simplify + analysis through the facade preserves bounds at surviving
// nodes.
func TestSimplifyThroughFacade(t *testing.T) {
	deck := "Vin in 0 1\nR1 in j1 10\nR2 j1 j2 15\nR3 j2 a 20\nC1 a 0 1p\nR4 j1 b 30\nC2 b 0 2p\n"
	parsed, err := elmore.ParseNetlistString(deck)
	if err != nil {
		t.Fatal(err)
	}
	orig := parsed.Tree
	simp, err := orig.Simplify()
	if err != nil {
		t.Fatal(err)
	}
	if simp.N() >= orig.N() {
		t.Fatalf("nothing simplified: %d -> %d", orig.N(), simp.N())
	}
	tdO := elmore.ElmoreDelays(orig)
	tdS := elmore.ElmoreDelays(simp)
	for _, name := range []string{"a", "b"} {
		io := orig.MustIndex(name)
		is := simp.MustIndex(name)
		if !approxI(tdO[io], tdS[is], 1e-12) {
			t.Errorf("%s: T_D changed by simplification", name)
		}
	}
}
