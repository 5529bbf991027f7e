// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - PWL resolution when approximating smooth inputs for the exact
//     engine (accuracy vs cost of DefaultPWLSegments);
//   - trapezoidal vs backward-Euler integration at equal step counts;
//   - path-tracing moments vs the O(N^2) definitional Elmore sum;
//   - exact eigen engine vs transient simulation for obtaining one
//     "actual delay" (the two ground-truth strategies);
//   - tree simplification's effect on analysis cost for junction-heavy
//     netlists.
//
// Run with: go test -bench=Ablation -benchmem
package elmore_test

import (
	"fmt"
	"math"
	"testing"

	"elmore"
	"elmore/internal/exact"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/topo"
)

// BenchmarkAblationPWLSegments measures raised-cosine delay extraction
// at increasing PWL resolution and reports the deviation from the
// finest resolution as "errps" (picoseconds), showing where added
// segments stop paying.
func BenchmarkAblationPWLSegments(b *testing.B) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		b.Fatal(err)
	}
	node := tree.MustIndex("C5")
	sig := signal.RaisedCosine{Tr: 1e-9}
	ref, err := sys.Delay(node, sig, 8192)
	if err != nil {
		b.Fatal(err)
	}
	for _, segs := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			b.ReportAllocs()
			var d float64
			for i := 0; i < b.N; i++ {
				if d, err = sys.Delay(node, sig, segs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(math.Abs(d-ref)*1e12, "errps")
		})
	}
}

// BenchmarkAblationIntegrator compares the two integration rules at the
// same step count, reporting the waveform error against the exact
// engine ("errmv", millivolts on a 1 V swing).
func BenchmarkAblationIntegrator(b *testing.B) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		b.Fatal(err)
	}
	node := tree.MustIndex("C5")
	const horizon, dt = 4e-9, 10e-12
	for _, m := range []sim.Method{sim.Trapezoidal, sim.BackwardEuler} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var worst float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(tree, sim.Options{TEnd: horizon, DT: dt, Method: m, Probes: []int{node}})
				if err != nil {
					b.Fatal(err)
				}
				w, err := res.Waveform(node)
				if err != nil {
					b.Fatal(err)
				}
				worst = 0
				for _, tt := range []float64{0.5e-9, 1e-9, 2e-9} {
					if e := math.Abs(w.At(tt) - sys.VStep(node, tt)); e > worst {
						worst = e
					}
				}
			}
			b.ReportMetric(worst*1e3, "errmv")
		})
	}
}

// BenchmarkAblationElmoreAlgorithm compares the O(N) two-traversal
// Elmore computation with the O(N^2) definitional sum.
func BenchmarkAblationElmoreAlgorithm(b *testing.B) {
	tree := topo.Random(42, topo.RandomOptions{N: 2000})
	b.Run("path-tracing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			moments.ElmoreDelays(tree)
		}
	})
	b.Run("definitional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for node := 0; node < tree.N(); node += 100 { // 20 nodes only: full sweep is quadratic
				moments.ElmoreDelayDirect(tree, node)
			}
		}
	})
}

// BenchmarkAblationGroundTruth compares the two "actual delay"
// strategies end to end on a 60-node tree: eigen-decomposition + exact
// crossing vs transient simulation + sampled crossing.
func BenchmarkAblationGroundTruth(b *testing.B) {
	tree := topo.Random(7, topo.RandomOptions{N: 60})
	leaf := tree.Leaves()[0]
	b.Run("exact-eigen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := exact.NewSystem(tree)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Delay50Step(leaf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transient-sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(tree, sim.Options{Probes: []int{leaf}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Cross(leaf, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSimplify measures how much the junction-merging
// transform shrinks analysis cost on an extraction-style netlist where
// 2 of every 3 nodes are zero-capacitance via/segment junctions.
func BenchmarkAblationSimplify(b *testing.B) {
	build := func(n int) *rctree.Tree {
		bld := rctree.NewBuilder()
		prev := bld.MustRoot("n0", 5, 0)
		for i := 1; i < n; i++ {
			c := 0.0
			if i%3 == 0 {
				c = 2e-15
			}
			prev = bld.MustAttach(prev, fmt.Sprintf("n%d", i), 5, c)
		}
		t, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	raw := build(3000)
	simplified, err := raw.Simplify()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("nodes: raw %d -> simplified %d", raw.N(), simplified.N())
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elmore.Analyze(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplified", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elmore.Analyze(simplified); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAWEOrder sweeps the moment-matching order,
// reporting delay error vs the exact value in picoseconds — the
// paper's "higher order approximations" accuracy/cost tradeoff.
func BenchmarkAblationAWEOrder(b *testing.B) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		b.Fatal(err)
	}
	node := tree.MustIndex("C5")
	want, err := sys.Delay50Step(node)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := elmore.AWEMoments(tree, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("q=%d", order), func(b *testing.B) {
			b.ReportAllocs()
			var d float64
			for i := 0; i < b.N; i++ {
				ap, err := elmore.FitAWE(ms, node, order)
				if err != nil {
					b.Fatal(err)
				}
				if d, err = ap.Delay50(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(math.Abs(d-want)*1e12, "errps")
		})
	}
}
