package moments

import (
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// The moment kernels must handle the degenerate extremes — a
// million-level chain and a hundred-thousand-wide star — and
// ElmoreDelays must reproduce Compute's T_D bit-for-bit on both.
func TestComputeDegenerateExtremes(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-topology stress test")
	}
	for _, tc := range []struct {
		name string
		tree *rctree.Tree
	}{
		{"chain1M", topo.Chain(1_000_000, 1, 1e-15)},
		{"star100k", topo.Star(100_000, 1, 50, 2e-14)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Compute(tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			td := ElmoreDelays(tc.tree)
			for i := range td {
				if td[i] != s.Elmore(i) {
					t.Fatalf("td[%d]: ElmoreDelays %v != Compute %v", i, td[i], s.Elmore(i))
				}
			}
			// Anchor the Elmore delays against closed forms (the O(N^2)
			// definitional oracle is too slow at this scale). For the
			// uniform chain, R_ki = min(i,k)+1 gives
			// T_D(i) = c*(i(i+1)/2 + (N-i)(i+1)); for the star every
			// leaf sees T_D = r_hub*C_total + r_leaf*c_leaf.
			n := tc.tree.N()
			anchor := func(i int, want float64) {
				t.Helper()
				got := td[i]
				if diff := got - want; diff > 1e-9*want || diff < -1e-9*want {
					t.Fatalf("node %d: Elmore %v, want %v", i, got, want)
				}
			}
			if tc.name == "chain1M" {
				for _, i := range []int{0, n / 2, n - 1} {
					fi, fn := float64(i), float64(n)
					anchor(i, 1e-15*(fi*(fi+1)/2+(fn-fi)*(fi+1)))
				}
			} else {
				ctotal := float64(n) * 2e-14
				anchor(0, 50*ctotal)            // hub
				anchor(n-1, 50*ctotal+50*2e-14) // any leaf
			}
		})
	}
}
