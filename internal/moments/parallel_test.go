package moments

import (
	"fmt"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// The level-parallel schedule must reproduce the serial sweep
// bit-for-bit: tree elimination order is deterministic and the kernels
// are gather-form, so there is no legitimate source of divergence.
func TestComputeParallelBitIdentical(t *testing.T) {
	trees := map[string]*rctree.Tree{
		"fig1":     topo.Fig1Tree(),
		"line25":   topo.Line25Tree(),
		"random1k": topo.Random(9, topo.RandomOptions{N: 1000}),
		"star":     topo.Star(300, 3, 50, 2e-14),
		"balanced": topo.Balanced(8, 3, 75, 1e-14),
	}
	for name, tree := range trees {
		t.Run(name, func(t *testing.T) {
			cp := rctree.Compile(tree)
			const order = 5
			mk := func(parallel bool) *Set {
				s := &Set{tree: tree, order: order, m: make([][]float64, order+1)}
				for q := range s.m {
					s.m[q] = make([]float64, tree.N())
				}
				computeCompiled(cp, s, parallel)
				return s
			}
			serial, par := mk(false), mk(true)
			for q := 1; q <= order; q++ {
				for i := 0; i < tree.N(); i++ {
					if serial.m[q][i] != par.m[q][i] {
						t.Fatalf("m[%d][%d]: serial %v != parallel %v",
							q, i, serial.m[q][i], par.m[q][i])
					}
				}
			}
			// ElmoreDelays kernel too.
			tdS := make([]float64, tree.N())
			tdP := make([]float64, tree.N())
			elmoreCompiled(cp, tdS, false)
			elmoreCompiled(cp, tdP, true)
			for i := range tdS {
				if tdS[i] != tdP[i] {
					t.Fatalf("td[%d]: serial %v != parallel %v", i, tdS[i], tdP[i])
				}
			}
			// And the PRH sweeps, T_R and T_P included.
			n := tree.N()
			prh := func(parallel bool) ([]float64, float64) {
				out, scratch := make([]float64, 3*n), make([]float64, 3*n)
				tp := prhInto(cp, out[:n], out[n:2*n], out[2*n:], scratch[:n], scratch[n:2*n], scratch[2*n:], parallel)
				return out, tp
			}
			outS, tpS := prh(false)
			outP, tpP := prh(true)
			if tpS != tpP {
				t.Fatalf("T_P: serial %v != parallel %v", tpS, tpP)
			}
			for i := range outS {
				if outS[i] != outP[i] {
					t.Fatalf("PRH term %d of node %d: serial %v != parallel %v", i/n, i%n, outS[i], outP[i])
				}
			}
		})
	}
}

// The compiled recurrence must agree with the O(N^2) definitional
// oracle regardless of topology.
func TestCompiledMatchesDirectOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		tree := topo.RandomSmall(seed, 40)
		s, err := Compute(tree, 1)
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
// the compiled-plan cache has to rebuild on mutation, not serve stale
// element values.
func TestComputeSeesMutations(t *testing.T) {
	tree := topo.Random(4, topo.RandomOptions{N: 200})
	before, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := tree.R(17)
	if err := tree.SetR(17, orig*3); err != nil {
		t.Fatal(err)
	}
	during, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if during.Elmore(17) == before.Elmore(17) {
		t.Fatal("moments did not observe SetR (stale compiled plan?)")
	}
	if err := tree.SetR(17, orig); err != nil {
		t.Fatal(err)
	}
	after, err := Compute(tree, 2)
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
