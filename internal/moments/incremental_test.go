package moments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// bitsEq reports exact bit equality, the standard the incremental
// engine promises against the full sweeps.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkAgainstFull compares every quantity the engine serves, at every
// node, against a fresh full recompute on a shadow tree carrying the
// same element values: T_D and the PathStats walk (μ2, μ3, T_R)
// against a fresh Set and ComputePRH. All comparisons are bit-exact.
func checkAgainstFull(t *testing.T, label string, inc *Incremental, shadow *rctree.Tree) {
	t.Helper()
	ms, err := Compute(shadow)
	if err != nil {
		t.Fatalf("%s: full Compute: %v", label, err)
	}
	prh := ComputePRH(shadow)
	downC := shadow.DownstreamC()
	n := shadow.N()
	for i := 0; i < n; i++ {
		if got, want := inc.Elmore(i), ms.Elmore(i); !bitsEq(got, want) {
			t.Fatalf("%s: Elmore(%d) = %v, want %v", label, i, got, want)
		}
		if got, want := inc.Elmore(i), prh.TD[i]; !bitsEq(got, want) {
			t.Fatalf("%s: Elmore(%d) = %v, ComputePRH has %v", label, i, got, want)
		}
		mu2, mu3, tr := inc.PathStats(i)
		if got, want := mu2, ms.Mu2(i); !bitsEq(got, want) {
			t.Fatalf("%s: mu2(%d) = %x, full recompute has %x",
				label, i, math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := mu3, ms.Mu3(i); !bitsEq(got, want) {
			t.Fatalf("%s: mu3(%d) = %x, full recompute has %x",
				label, i, math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := tr, prh.TR(i); !bitsEq(got, want) {
			t.Fatalf("%s: TR(%d) = %v, want %v", label, i, got, want)
		}
		if got, want := inc.PathResistance(i), prh.PathResistance(i); !bitsEq(got, want) {
			t.Fatalf("%s: Rkk(%d) = %v, want %v", label, i, got, want)
		}
		if got, want := inc.DownstreamC(i), downC[i]; !bitsEq(got, want) {
			t.Fatalf("%s: DownstreamC(%d) = %v, want %v", label, i, got, want)
		}
	}
	if got, want := inc.TP(), prh.TP; !bitsEq(got, want) {
		t.Fatalf("%s: TP = %v, want %v", label, got, want)
	}
}

func testTopologies() map[string]*rctree.Tree {
	return map[string]*rctree.Tree{
		"chain":    topo.Chain(60, 75, 3e-14),
		"star":     topo.Star(8, 7, 120, 2e-14),
		"deep-fan": topo.Balanced(5, 3, 50, 1e-14),
		"fig1":     topo.Fig1Tree(),
		"random":   topo.Random(1234, topo.RandomOptions{N: 90}),
	}
}

func TestIncrementalFreshMatchesFull(t *testing.T) {
	for name, tree := range testTopologies() {
		inc, err := NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFull(t, name+"/fresh", inc, tree)
	}
}

func TestIncrementalSingleEdits(t *testing.T) {
	for name, tree := range testTopologies() {
		inc, err := NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		shadow := tree.Clone()
		// A C edit at a leaf-ish node, an R edit near the root, then both
		// at the same node.
		edits := []struct {
			node int
			isR  bool
			v    float64
		}{
			{tree.N() - 1, false, 5.5e-13},
			{0, true, 321.5},
			{tree.N() / 2, false, 1.25e-13},
			{tree.N() / 2, true, 77.0},
		}
		for k, e := range edits {
			var err error
			if e.isR {
				err = inc.SetR(e.node, e.v)
				if err == nil {
					err = shadow.SetR(e.node, e.v)
				}
			} else {
				err = inc.SetC(e.node, e.v)
				if err == nil {
					err = shadow.SetC(e.node, e.v)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFull(t, fmt.Sprintf("%s/edit%d", name, k), inc, shadow)
		}
	}
}

func TestIncrementalRevertRestoresBaseline(t *testing.T) {
	tree := topo.Star(6, 10, 100, 1e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot baseline values.
	base := make([]float64, tree.N())
	for i := range base {
		base[i] = inc.Elmore(i)
	}
	baseTP := inc.TP()
	for i := 0; i < tree.N(); i += 3 {
		if err := inc.SetC(i, 9e-13); err != nil {
			t.Fatal(err)
		}
		if err := inc.SetR(i, 999); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Elmore(tree.N()-1) == base[tree.N()-1] {
		t.Fatalf("perturbation did not move the delay")
	}
	inc.Revert()
	for i := range base {
		if !bitsEq(inc.Elmore(i), base[i]) {
			t.Fatalf("Revert did not restore Elmore(%d): %v != %v", i, inc.Elmore(i), base[i])
		}
		if !bitsEq(inc.R(i), tree.R(i)) || !bitsEq(inc.C(i), tree.C(i)) {
			t.Fatalf("Revert did not restore values at %d", i)
		}
	}
	if !bitsEq(inc.TP(), baseTP) {
		t.Fatalf("Revert did not restore TP")
	}
	// Full cross-check after the revert.
	checkAgainstFull(t, "revert", inc, tree)
}

func TestIncrementalCommitMovesBaseline(t *testing.T) {
	tree := topo.Chain(40, 100, 1e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetR(20, 500); err != nil {
		t.Fatal(err)
	}
	committed := inc.Elmore(39)
	inc.Commit()
	if err := inc.SetC(10, 8e-13); err != nil {
		t.Fatal(err)
	}
	inc.Revert() // must return to the committed state, not construction
	if !bitsEq(inc.Elmore(39), committed) {
		t.Fatalf("Revert after Commit went past the committed baseline")
	}
	if !bitsEq(inc.R(20), 500) {
		t.Fatalf("committed edit was lost: R(20) = %v", inc.R(20))
	}
}

func TestIncrementalSyncTree(t *testing.T) {
	tree := topo.Balanced(4, 3, 80, 2e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetR(5, 444); err != nil {
		t.Fatal(err)
	}
	if err := inc.SetC(7, 3e-13); err != nil {
		t.Fatal(err)
	}
	gen0 := tree.Generation()
	if err := inc.SyncTree(); err != nil {
		t.Fatal(err)
	}
	if tree.Generation() != gen0+1 {
		t.Fatalf("SyncTree must bump the tree generation exactly once")
	}
	if tree.R(5) != 444 || tree.C(7) != 3e-13 {
		t.Fatalf("SyncTree did not write the engine values back")
	}
	// After the sync the tree and engine agree entirely.
	checkAgainstFull(t, "synced", inc, tree)
}

func TestIncrementalValidationAndErrors(t *testing.T) {
	tree := topo.Chain(5, 100, 1e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetR(2, -1); err == nil {
		t.Errorf("negative resistance must be rejected")
	}
	if err := inc.SetC(2, math.NaN()); err == nil {
		t.Errorf("NaN capacitance must be rejected")
	}
	if err := inc.SetR(99, 1); err == nil {
		t.Errorf("out-of-range index must be rejected")
	}
	if err := inc.SetC(-1, 1e-15); err == nil {
		t.Errorf("negative index must be rejected")
	}
	// Rejected edits leave no dirt behind.
	if st := inc.Stats(); st.Sets != 0 {
		t.Errorf("rejected edits counted as sets: %+v", st)
	}
	if _, err := NewIncremental(nil); err == nil {
		t.Errorf("nil tree must be rejected")
	}
}

func TestIncrementalNoopEditIsFree(t *testing.T) {
	tree := topo.Chain(10, 100, 1e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetR(3, tree.R(3)); err != nil {
		t.Fatal(err)
	}
	if st := inc.Stats(); st.Sets != 0 {
		t.Errorf("value-identical edit must be a no-op, got %+v", st)
	}
}

// TestIncrementalPropertyRandomSequences: random SetR/SetC/Revert
// sequences over chains, stars and deep fans, asserting bit-identical
// Elmore, μ2, μ3 and T_R against a fresh full Compute after every step. Run under -race in the
// standard lanes.
func TestIncrementalPropertyRandomSequences(t *testing.T) {
	topos := []struct {
		name string
		mk   func(seed int64) *rctree.Tree
	}{
		{"chain", func(seed int64) *rctree.Tree { return topo.Chain(30+int(seed%40), 50, 2e-14) }},
		{"star", func(seed int64) *rctree.Tree { return topo.Star(3+int(seed%5), 4+int(seed%6), 80, 1e-14) }},
		{"deepfan", func(seed int64) *rctree.Tree { return topo.Balanced(3+int(seed%3), 2+int(seed%3), 60, 3e-14) }},
		{"random", func(seed int64) *rctree.Tree { return topo.RandomSmall(seed, 150) }},
	}
	seeds := 6
	steps := 25
	if testing.Short() {
		seeds, steps = 2, 10
	}
	for _, tp := range topos {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(seeds); seed++ {
				tree := tp.mk(seed)
				rng := rand.New(rand.NewSource(seed * 7919))
				inc, err := NewIncremental(tree)
				if err != nil {
					t.Fatal(err)
				}
				shadow := tree.Clone()
				// committedShadow tracks the revert baseline.
				committed := tree.Clone()
				for step := 0; step < steps; step++ {
					switch op := rng.Intn(10); {
					case op < 4: // SetC
						node := rng.Intn(tree.N())
						v := 1e-15 * (1 + 1e3*rng.Float64())
						if err := inc.SetC(node, v); err != nil {
							t.Fatal(err)
						}
						if err := shadow.SetC(node, v); err != nil {
							t.Fatal(err)
						}
					case op < 8: // SetR
						node := rng.Intn(tree.N())
						v := 10 + 1e3*rng.Float64()
						if err := inc.SetR(node, v); err != nil {
							t.Fatal(err)
						}
						if err := shadow.SetR(node, v); err != nil {
							t.Fatal(err)
						}
					case op < 9: // Revert
						inc.Revert()
						shadow = committed.Clone()
					default: // Commit
						inc.Commit()
						committed = shadow.Clone()
					}
					checkAgainstFull(t, fmt.Sprintf("%s/seed%d/step%d", tp.name, seed, step), inc, shadow)
				}
			}
		})
	}
}

// TestIncrementalDrainMoved checks the moved-set contract: it contains
// every node whose moments changed, and drains to empty.
func TestIncrementalDrainMoved(t *testing.T) {
	tree := topo.Star(5, 8, 100, 1e-14)
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	shadow := tree.Clone()
	node := tree.MustIndex("b3_n4")
	if err := inc.SetR(node, 777); err != nil {
		t.Fatal(err)
	}
	if err := shadow.SetR(node, 777); err != nil {
		t.Fatal(err)
	}
	after, err := Compute(shadow)
	if err != nil {
		t.Fatal(err)
	}
	moved := inc.DrainMoved(nil)
	inSet := make(map[int]bool, len(moved))
	for _, i := range moved {
		inSet[i] = true
	}
	for i := 0; i < tree.N(); i++ {
		changed := !bitsEq(before.Elmore(i), after.Elmore(i)) ||
			!bitsEq(before.Mu2(i), after.Mu2(i)) || !bitsEq(before.Mu3(i), after.Mu3(i))
		if changed && !inSet[i] {
			t.Fatalf("node %d moved but is not in the drained set", i)
		}
	}
	if again := inc.DrainMoved(nil); len(again) != 0 {
		t.Fatalf("second drain should be empty, got %d nodes", len(again))
	}
}

// TestIncrementalStatsAndLocality pins the headline property: a single
// leaf perturbation on a long branch costs work proportional to the
// leaf's depth, never to the tree, and the counters record it. A ΔR at
// the leaf regathers nothing at once, the T_D flush sweeps the leaf's
// one-node subtree, and the next PathStats regathers the admittances
// above the leaf (depth-1 nodes) and walks its root path (depth nodes).
func TestIncrementalStatsAndLocality(t *testing.T) {
	const n = 4000
	tree := topo.Star(4, n/4, 10, 1e-15) // hub + 4 branches of n/4
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.N() - 1
	depth := int64(tree.Depth(leaf))
	st0 := inc.Stats()
	if err := inc.SetR(leaf, 55); err != nil {
		t.Fatal(err)
	}
	st1 := inc.Stats()
	if got := st1.Gathered - st0.Gathered; got != 0 {
		t.Errorf("leaf ΔR regathered %d nodes at once, want 0", got)
	}
	_ = inc.Elmore(leaf)
	st2 := inc.Stats()
	if got := st2.NodesTouched - st1.NodesTouched; got != 1 {
		t.Errorf("T_D flush after a leaf ΔR touched %d nodes, want 1", got)
	}
	if st2.Flushes != st1.Flushes+1 {
		t.Errorf("expected exactly one flush, got %+v", st2)
	}
	inc.PathStats(leaf)
	st3 := inc.Stats()
	if got := st3.Walked - st2.Walked; got != depth {
		t.Errorf("PathStats walked %d nodes, want depth = %d", got, depth)
	}
	if got := st3.Gathered - st2.Gathered; got != depth-1 {
		t.Errorf("PathStats after a leaf ΔR regathered %d nodes, want depth-1 = %d", got, depth-1)
	}
	if st3.NodesTouched != st2.NodesTouched {
		t.Errorf("PathStats flushed: %+v -> %+v", st2, st3)
	}
	if depth > n/4+1 || st3.FullFallbacks != 0 {
		t.Fatalf("depth %d, stats %+v", depth, st3)
	}
}

// logUniformForest returns a seeded random forest of n nodes whose R
// and C are log-uniform over seven decades each; a node hangs from the
// source with probability 1/rootEvery, else from a random earlier node.
func logUniformForest(seed int64, n, rootEvery int) *rctree.Tree {
	rng := rand.New(rand.NewSource(seed))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	b := rctree.NewBuilder()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		if i == 0 || rng.Intn(rootEvery) == 0 {
			b.MustRoot(name, logU(1e-2, 1e5), logU(1e-18, 1e-11))
		} else {
			b.MustAttach(rng.Intn(i), name, logU(1e-2, 1e5), logU(1e-18, 1e-11))
		}
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// TestIncrementalTRMatchesFresh pins the T_R of Incremental.PathStats
// and TP to a fresh ComputePRH bit for bit after random SetR/SetC/Revert/Commit
// sequences — one to three edits between checks — on a chain, a
// single-root tree and a multi-root forest whose element values span
// seven decades.
func TestIncrementalTRMatchesFresh(t *testing.T) {
	trees := []struct {
		name string
		mk   func(seed int64) *rctree.Tree
	}{
		{"chain", func(seed int64) *rctree.Tree { return topo.Chain(40+int(seed), 30, 2e-14) }},
		{"tree", func(seed int64) *rctree.Tree {
			return topo.Random(seed, topo.RandomOptions{N: 120, RMin: 1e-2, RMax: 1e5, CMin: 1e-18, CMax: 1e-11})
		}},
		{"forest", func(seed int64) *rctree.Tree { return logUniformForest(seed, 90, 6) }},
	}
	for _, tc := range trees {
		for seed := int64(0); seed < 6; seed++ {
			tree := tc.mk(seed)
			inc, err := NewIncremental(tree)
			if err != nil {
				t.Fatal(err)
			}
			shadow, committed := tree.Clone(), tree.Clone()
			rng := rand.New(rand.NewSource(seed + 101))
			logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
			for step := 0; step < 30; step++ {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					node := rng.Intn(tree.N())
					switch op := rng.Intn(10); {
					case op < 4:
						v := logU(1e-18, 1e-11)
						if err := inc.SetC(node, v); err != nil {
							t.Fatal(err)
						}
						if err := shadow.SetC(node, v); err != nil {
							t.Fatal(err)
						}
					case op < 8:
						v := logU(1e-2, 1e5)
						if err := inc.SetR(node, v); err != nil {
							t.Fatal(err)
						}
						if err := shadow.SetR(node, v); err != nil {
							t.Fatal(err)
						}
					case op < 9:
						inc.Revert()
						shadow = committed.Clone()
					default:
						inc.Commit()
						committed = shadow.Clone()
					}
				}
				prh := ComputePRH(shadow)
				if step%2 == 0 { // flush the path resistance first on even steps
					if got, want := inc.TP(), prh.TP; !bitsEq(got, want) {
						t.Fatalf("%s/seed%d/step%d: TP %v, fresh %v", tc.name, seed, step, got, want)
					}
				}
				for i := 0; i < tree.N(); i++ {
					if _, _, got := inc.PathStats(i); !bitsEq(got, prh.TR(i)) {
						want := prh.TR(i)
						t.Fatalf("%s/seed%d/step%d: TR(%d) = %x, fresh ComputePRH %x",
							tc.name, seed, step, i, math.Float64bits(got), math.Float64bits(want))
					}
				}
				if got, want := inc.TP(), prh.TP; !bitsEq(got, want) {
					t.Fatalf("%s/seed%d/step%d: TP %v, fresh %v", tc.name, seed, step, got, want)
				}
			}
		}
	}
}

// TestIncrementalForestRanges pins what one edit costs on a multi-root
// forest. A ΔR at an inner node k regathers nothing at once, sweeps
// exactly k's subtree for T_D (Elmore) and again for the path resistance
// (PathResistance), and leaves the admittances strictly above k
// (depth(k)-1 nodes) to the next PathStats; a ΔC at
// k regathers k's whole root path (depth(k) nodes) and sweeps exactly
// k's component for T_D; PathStats walks depth(k) nodes and sweeps
// nothing; and the moved set is exactly k's component. Sizes come from
// Tree.Children and Tree.Depth, not from the engine.
func TestIncrementalForestRanges(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tree := logUniformForest(seed, 90, 6)
		subtree := func(k int) []int {
			nodes := []int{k}
			for i := 0; i < len(nodes); i++ {
				for _, ch := range tree.Children(nodes[i]) {
					nodes = append(nodes, int(ch))
				}
			}
			return nodes
		}
		var inner []int
		for i := 0; i < tree.N(); i++ {
			if tree.Parent(i) != rctree.Source && len(tree.Children(i)) > 0 {
				inner = append(inner, i)
			}
		}
		if len(inner) == 0 {
			t.Fatalf("seed %d: forest has no inner non-root node", seed)
		}
		k := inner[rand.New(rand.NewSource(seed)).Intn(len(inner))]
		root := k
		for tree.Parent(root) != rctree.Source {
			root = tree.Parent(root)
		}
		sub, comp, depth := subtree(k), subtree(root), int64(tree.Depth(k))

		inc, err := NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		shadow := tree.Clone()
		// work runs f and returns the nodes it regathered, swept and
		// walked.
		work := func(f func()) (gathered, touched, walked int64) {
			before := inc.Stats()
			f()
			after := inc.Stats()
			return after.Gathered - before.Gathered, after.NodesTouched - before.NodesTouched, after.Walked - before.Walked
		}
		label := fmt.Sprintf("seed%d/k=%d", seed, k)

		r := 2 * tree.R(k)
		if g, _, _ := work(func() {
			if err := inc.SetR(k, r); err != nil {
				t.Fatal(err)
			}
		}); g != 0 {
			t.Errorf("%s: SetR regathered %d nodes at once, want 0", label, g)
		}
		if err := shadow.SetR(k, r); err != nil {
			t.Fatal(err)
		}
		if _, got, _ := work(func() { inc.Elmore(k) }); got != int64(len(sub)) {
			t.Errorf("%s: SetR then Elmore touched %d nodes, want |subtree| = %d", label, got, len(sub))
		}
		if _, got, _ := work(func() { inc.PathResistance(k) }); got != int64(len(sub)) {
			t.Errorf("%s: then PathResistance touched %d nodes, want |subtree| = %d", label, got, len(sub))
		}
		if g, touched, walked := work(func() { inc.PathStats(k) }); g != depth-1 || touched != 0 || walked != depth {
			t.Errorf("%s: SetR then PathStats regathered %d, swept %d and walked %d nodes; want depth-1 = %d, 0 and depth = %d",
				label, g, touched, walked, depth-1, depth)
		}
		checkAgainstFull(t, label+"/SetR", inc, shadow)

		c := 3 * tree.C(k)
		if g, _, _ := work(func() {
			if err := inc.SetC(k, c); err != nil {
				t.Fatal(err)
			}
		}); g != depth {
			t.Errorf("%s: SetC regathered %d nodes, want depth = %d", label, g, depth)
		}
		if err := shadow.SetC(k, c); err != nil {
			t.Fatal(err)
		}
		if g, touched, walked := work(func() { inc.PathStats(k) }); g != 0 || touched != 0 || walked != depth {
			t.Errorf("%s: SetC then PathStats regathered %d, swept %d and walked %d nodes; want 0, 0 and depth = %d",
				label, g, touched, walked, depth)
		}
		if _, got, _ := work(func() { inc.Elmore(k) }); got != int64(len(comp)) {
			t.Errorf("%s: SetC then Elmore touched %d nodes, want |component| = %d", label, got, len(comp))
		}
		moved := inc.DrainMoved(nil)
		slices.Sort(moved)
		slices.Sort(comp)
		if !slices.Equal(moved, comp) {
			t.Errorf("%s: moved set %v, want component %v", label, moved, comp)
		}
		checkAgainstFull(t, label+"/SetC", inc, shadow)
	}
}

// FuzzIncrementalEdits builds a forest of at most 48 nodes from the
// input and replays an input-chosen sequence of SetR/SetC/Revert/Commit
// on an engine bound to it, checking every served value (T_D and the
// PathStats walk included) bit for bit against a fresh Set and
// ComputePRH on a shadow tree after every operation.
//
// Input layout: one byte for the node count; three bytes per node
// (parent, R, C); then three bytes per operation (kind, node, value).
// A parent byte of 0 makes a root, and p > 0 attaches node i to node
// (p-1) mod i. Value bytes are log-uniform over seven decades, R in
// [1e-2, 1e5] and C in [1e-18, 1e-11]; a C byte of 0 is C = 0.
func FuzzIncrementalEdits(f *testing.F) {
	seed := func(parents []int, ops ...[3]byte) []byte {
		data := []byte{byte(len(parents) - 1)}
		for i, p := range parents {
			data = append(data, byte(p+1), byte(37*i+90), byte(53*i+1))
		}
		for _, op := range ops {
			data = append(data, op[:]...)
		}
		return data
	}
	ops := [][3]byte{{0, 5, 200}, {1, 3, 9}, {2, 0, 0}, {1, 11, 250}, {3, 0, 0}, {0, 0, 17}, {1, 7, 0}, {2, 0, 0}}
	chain := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	star := []int{-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	forest := []int{-1, 0, 1, -1, 3, 3, 4, -1, 7, 8, 8, 7}
	for _, parents := range [][]int{chain, star, forest} {
		f.Add(seed(parents, ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		valR := func(b byte) float64 { return 1e-2 * math.Pow(1e7, float64(b)/255) }
		valC := func(b byte) float64 {
			if b == 0 {
				return 0
			}
			return 1e-18 * math.Pow(1e7, float64(b)/255)
		}
		n := 1 + int(next())%48
		b := rctree.NewBuilder()
		for i := 0; i < n; i++ {
			p, r, c := next(), valR(next()), valC(next())
			name := fmt.Sprintf("n%d", i)
			if i == 0 || p == 0 {
				b.MustRoot(name, r, c)
			} else {
				b.MustAttach(int(p-1)%i, name, r, c)
			}
		}
		tree, err := b.Build()
		if err != nil {
			t.Skip(err) // e.g. every C zero: not a tree Build accepts
		}
		inc, err := NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		shadow, committed := tree.Clone(), tree.Clone()
		for op := 0; len(data) > 0 && op < 64; op++ {
			kind, node, v := next()%4, int(next())%n, next()
			switch kind {
			case 0:
				if err := inc.SetR(node, valR(v)); err != nil {
					t.Fatal(err)
				}
				if err := shadow.SetR(node, valR(v)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := inc.SetC(node, valC(v)); err != nil {
					t.Fatal(err)
				}
				if err := shadow.SetC(node, valC(v)); err != nil {
					t.Fatal(err)
				}
			case 2:
				inc.Revert()
				shadow = committed.Clone()
			default:
				inc.Commit()
				committed = shadow.Clone()
			}
			checkAgainstFull(t, fmt.Sprintf("op%d", op), inc, shadow)
		}
	})
}
