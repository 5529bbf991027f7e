package moments

import (
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// Allocation budgets for the serial (small-net) path. These are exact
// counts, not estimates — a new make, a closure capture of a reassigned
// variable, or an interface conversion on the hot path shows up here as
// a +1 before it shows up as a benchmark regression.
//
// The kernels sweep the tree's own arrays and run in their outputs, so
// no count includes scratch:
//
//	Compute:      Set header, column backing = 2
//	ElmoreDelays: td                         = 1
const (
	computeAllocBudget = 2
	elmoreAllocBudget  = 1
)

func TestComputeAllocBudget(t *testing.T) {
	tree := topo.Random(11, topo.RandomOptions{N: 300})
	if _, err := Compute(tree); err != nil { // warm the telemetry counters
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := Compute(tree); err != nil {
			t.Fatal(err)
		}
	})
	if got > computeAllocBudget {
		t.Errorf("Compute = %.1f allocs/op, budget %d", got, computeAllocBudget)
	}
}

func TestElmoreDelaysAllocBudget(t *testing.T) {
	tree := topo.Random(11, topo.RandomOptions{N: 300})
	ElmoreDelays(tree)
	got := testing.AllocsPerRun(200, func() { ElmoreDelays(tree) })
	if got > elmoreAllocBudget {
		t.Errorf("ElmoreDelays = %.1f allocs/op, budget %d", got, elmoreAllocBudget)
	}
}

// The PRH columns that Compute folds into its downward sweep must be
// bit-identical to computing each ingredient on its own: T_D against
// ElmoreDelays, R_ii and T_R against the R_ii and S recurrences
// evaluated in tree pre-order over the standalone Tree.DownstreamC, and
// T_P against the index-order sum of R_ii C_i. The expressions are the
// same per node, so there is no legitimate source of divergence — not
// even in the last ulp.
func TestComputePRHColumnsBitIdenticalToStandalone(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{N: 500})
		p, err := Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		td := ElmoreDelays(tree)
		down := tree.DownstreamC()
		rkk := make([]float64, tree.N())
		s := make([]float64, tree.N())
		for _, i := range tree.PreOrder() {
			var rp, sp float64
			if par := tree.Parent(i); par != rctree.Source {
				rp, sp = rkk[par], s[par]
			}
			rkk[i] = tree.R(i) + rp
			s[i] = sp + tree.R(i)*(rkk[i]+rp)*down[i]
		}
		var tp float64
		for i := 0; i < tree.N(); i++ {
			tp += rkk[i] * tree.C(i)
			if p.Elmore(i) != td[i] {
				t.Fatalf("seed %d node %d: fused TD %v != ElmoreDelays %v", seed, i, p.Elmore(i), td[i])
			}
			if p.PathResistance(i) != rkk[i] {
				t.Fatalf("seed %d node %d: fused R_ii %v != pre-order sweep %v", seed, i, p.PathResistance(i), rkk[i])
			}
			if want := s[i] / rkk[i]; p.TR(i) != want {
				t.Fatalf("seed %d node %d: fused T_R %v != pre-order sweep %v", seed, i, p.TR(i), want)
			}
		}
		if p.TP() != tp {
			t.Fatalf("seed %d: fused T_P %v != index-order sum %v", seed, p.TP(), tp)
		}
	}
}

// A what-if probe on a bound engine allocates nothing: SetR and SetC at
// one node, the first Elmore read (it sweeps T_D), a read of every leaf,
// TotalC and Revert. One warm-up probe sizes the revert log.
func TestIncrementalProbeAllocFree(t *testing.T) {
	tree := topo.Random(42, topo.RandomOptions{N: 10000})
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	k := 0
	probe := func() {
		k = (k + 997) % tree.N()
		if err := inc.SetR(k, tree.R(k)/1.4); err != nil {
			t.Fatal(err)
		}
		if err := inc.SetC(k, tree.C(k)*1.4); err != nil {
			t.Fatal(err)
		}
		worst := inc.Elmore(k)
		for _, l := range leaves {
			if d := inc.Elmore(l); d > worst {
				worst = d
			}
		}
		if !(worst > 0) || !(inc.TotalC() > 0) {
			t.Fatal("bad probe")
		}
		inc.Revert()
	}
	probe()
	if got := testing.AllocsPerRun(100, probe); got != 0 {
		t.Errorf("probe = %.1f allocs/op, want 0", got)
	}
}

func BenchmarkCompute(b *testing.B) {
	tree := topo.Random(11, topo.RandomOptions{N: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tree); err != nil {
			b.Fatal(err)
		}
	}
}
