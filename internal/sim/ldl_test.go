package sim

import (
	"math/rand"
	"testing"

	"elmore/internal/linalg"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// The tree solver must match a dense LU solve on the same matrix.
func TestTreeLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		tree := topo.RandomSmall(rng.Int63(), 25)
		n := tree.N()
		diag := make([]float64, n)
		offd := make([]float64, n)
		dense := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			diag[i] = 2 + rng.Float64()*3
		}
		for i := 0; i < n; i++ {
			if p := tree.Parent(i); p != rctree.Source {
				offd[i] = -(0.1 + rng.Float64()*0.4) // keep diagonally dominant
				dense.Set(i, p, offd[i])
				dense.Set(p, i, offd[i])
			}
		}
		for i := 0; i < n; i++ {
			dense.Set(i, i, diag[i])
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		want, err := linalg.SolveLU(dense, rhs)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		f, err := factorTree(tree.Arrays(), diag, offd, offd, tree.Name)
		if err != nil {
			t.Fatalf("trial %d: factorTree: %v", trial, err)
		}
		got := append([]float64(nil), rhs...)
		f.solve(got)
		for i := range want {
			if !approx(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// A non-positive pivot must be reported with the offending node's
// name: the first bad pivot the children-first elimination meets.
func TestFactorRejectsBadPivot(t *testing.T) {
	tree := topo.Chain(4, 1, 1e-15)
	offd := make([]float64, tree.N())
	for _, tc := range []struct {
		name string
		diag []float64
		want string
	}{
		// Every pivot negative: the deepest node is eliminated first.
		{"all", []float64{-1, -1, -1, -1}, `sim: non-positive pivot -1 at node "n4"`},
		// One bad pivot mid-chain, at index 2.
		{"mid", []float64{1, 1, -1, 1}, `sim: non-positive pivot -1 at node "n3"`},
	} {
		_, err := factorTree(tree.Arrays(), tc.diag, offd, offd, tree.Name)
		if err == nil {
			t.Fatalf("%s: factorTree accepted a negative diagonal", tc.name)
		}
		if err.Error() != tc.want {
			t.Fatalf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}
