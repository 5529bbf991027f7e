package sim

import (
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// Simulation plans must handle the degenerate extremes — a
// million-level chain and a hundred-thousand-wide star — and keep the
// response physical on both.
func TestPlanDegenerateExtremes(t *testing.T) {
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
			const dt = 1e-12
			probes := []int{0, tc.tree.N() / 2, tc.tree.N() - 1}
			// Backward Euler: L-stable, so the coarse-step response stays
			// monotone in [0, 1] (trapezoidal would ring at this dt,
			// legitimately overshooting 1).
			plan, err := NewPlan(tc.tree, PlanOptions{DT: dt, Method: BackwardEuler})
			if err != nil {
				t.Fatal(err)
			}
			res, err := plan.Run(nil, RunOptions{TEnd: 5 * dt, Probes: probes})
			if err != nil {
				t.Fatal(err)
			}
			for _, node := range probes {
				sv, _ := res.Voltages(node)
				if len(sv) != 6 {
					t.Fatalf("node %d: %d samples, want 6", node, len(sv))
				}
				// The response must actually move at the first node and
				// stay physical (within [0, 1]) everywhere.
				for s, v := range sv {
					if v < 0 || v > 1 {
						t.Fatalf("node %d step %d: unphysical voltage %v", node, s, v)
					}
				}
			}
			first, _ := res.Voltages(0)
			if first[5] <= 0 {
				t.Fatalf("root-side node never charged: %v", first)
			}
		})
	}
}
