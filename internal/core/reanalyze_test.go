package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func boundsBitsEqual(a, b Bounds) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Node == b.Node &&
		eq(a.Elmore, b.Elmore) && eq(a.Sigma, b.Sigma) &&
		eq(a.Mu2, b.Mu2) && eq(a.Mu3, b.Mu3) && eq(a.Skewness, b.Skewness) &&
		eq(a.Lower, b.Lower) && eq(a.SinglePole, b.SinglePole) &&
		eq(a.PRHTmin, b.PRHTmin) && eq(a.PRHTmax, b.PRHTmax) &&
		eq(a.RiseTime, b.RiseTime)
}

// Reanalyzing every sink after a perturbation sequence must reproduce,
// bit for bit, the Bounds a fresh Analyze computes on a tree carrying
// the same values — the acceptance contract of the incremental path.
func TestReanalyzeAllSinksBitIdentical(t *testing.T) {
	for name, tree := range map[string]*rctree.Tree{
		"chain":  topo.Chain(50, 80, 2e-14),
		"star":   topo.Star(6, 8, 120, 1e-14),
		"random": topo.Random(5, topo.RandomOptions{N: 120}),
	} {
		an, err := Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := moments.NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		shadow := tree.Clone()
		rng := rand.New(rand.NewSource(42))
		for step := 0; step < 12; step++ {
			node := rng.Intn(tree.N())
			if rng.Intn(2) == 0 {
				v := 10 + 500*rng.Float64()
				if err := inc.SetR(node, v); err != nil {
					t.Fatal(err)
				}
				if err := shadow.SetR(node, v); err != nil {
					t.Fatal(err)
				}
			} else {
				v := 1e-15 * (1 + 500*rng.Float64())
				if err := inc.SetC(node, v); err != nil {
					t.Fatal(err)
				}
				if err := shadow.SetC(node, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		sinks := make([]int, tree.N())
		for i := range sinks {
			sinks[i] = i
		}
		if err := an.Reanalyze(inc, sinks); err != nil {
			t.Fatal(err)
		}
		fresh, err := Analyze(shadow)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(an.TP) != math.Float64bits(fresh.TP) {
			t.Fatalf("%s: TP %v != fresh %v", name, an.TP, fresh.TP)
		}
		for i := range sinks {
			if !boundsBitsEqual(an.Bounds[i], fresh.Bounds[i]) {
				t.Fatalf("%s: Bounds[%d] diverged:\nreanalyzed %+v\nfresh      %+v", name, i, an.Bounds[i], fresh.Bounds[i])
			}
		}
	}
}

// Reanalyze(nil) uses the engine's drained moved set; every moved
// node's bounds must match a fresh analysis afterwards.
func TestReanalyzeMovedSinks(t *testing.T) {
	tree := topo.Star(5, 10, 100, 1e-14)
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	shadow := tree.Clone()
	node := tree.MustIndex("b2_n5")
	if err := inc.SetR(node, 777); err != nil {
		t.Fatal(err)
	}
	if err := shadow.SetR(node, 777); err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(inc, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(shadow)
	if err != nil {
		t.Fatal(err)
	}
	// Every node whose fresh bounds differ from the original analysis
	// must have been refreshed (the moved hull may cover extra nodes —
	// refreshing those is harmless and also lands on the fresh bits).
	for i := 0; i < tree.N(); i++ {
		if !boundsBitsEqual(an.Bounds[i], fresh.Bounds[i]) {
			// Permitted only if the entry did not move at all AND differs
			// solely through the tree-level TP entering PRH fields — but a
			// ΔR moves TP, so here everything PRH-dependent moved; require
			// full agreement.
			t.Fatalf("Bounds[%d] stale after Reanalyze(nil):\ngot   %+v\nfresh %+v", i, an.Bounds[i], fresh.Bounds[i])
		}
	}
}

// In a two-root forest, an edit in one component changes the
// tree-level TP and therefore the PRH fields of the OTHER component's
// nodes; Reanalyze(nil) must not leave those stale.
func TestReanalyzeForestTPPropagation(t *testing.T) {
	b := rctree.NewBuilder()
	a1 := b.MustRoot("a1", 100, 1e-14)
	b.MustAttach(a1, "a2", 50, 2e-14)
	b1 := b.MustRoot("b1", 200, 3e-14)
	b.MustAttach(b1, "b2", 80, 1e-14)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	shadow := tree.Clone()
	node := tree.MustIndex("a2")
	if err := inc.SetC(node, 9e-13); err != nil {
		t.Fatal(err)
	}
	if err := shadow.SetC(node, 9e-13); err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(inc, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(shadow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if !boundsBitsEqual(an.Bounds[i], fresh.Bounds[i]) {
			t.Fatalf("Bounds[%s] stale after cross-component TP change:\ngot   %+v\nfresh %+v",
				tree.Name(i), an.Bounds[i], fresh.Bounds[i])
		}
	}
}

func TestReanalyzeErrors(t *testing.T) {
	tree := topo.Chain(10, 100, 1e-14)
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(nil, nil); err == nil {
		t.Errorf("nil engine must be rejected")
	}
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(inc, []int{99}); err == nil {
		t.Errorf("out-of-range sink must be rejected")
	}
	other, err := moments.NewIncremental(topo.Chain(3, 1, 1e-15))
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(other, nil); err == nil {
		t.Errorf("node-count mismatch must be rejected")
	}
}

// WindowAt after Reanalyze reads the T_R of the refreshed row, so its
// window is the one a fresh Analyze of the edited circuit gives, bit for
// bit. With T_R from the bind-time moment set and T_D and T_P from the
// refreshed row, node 0 of this tree read [0, -1.74e-9] at v = 0.1,
// against [0, 1.59e-12] fresh.
func TestWindowAtAfterReanalyze(t *testing.T) {
	tree := topo.Random(5, topo.RandomOptions{N: 30})
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetR(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := inc.SetC(7, 1e-11); err != nil {
		t.Fatal(err)
	}
	if err := an.Reanalyze(inc, nil); err != nil {
		t.Fatal(err)
	}
	if err := inc.SyncTree(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		for _, v := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			lo, hi, err := an.WindowAt(i, v)
			if err != nil {
				t.Fatal(err)
			}
			wlo, whi, err := fresh.WindowAt(i, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
				t.Fatalf("node %d, v=%v: window [%v, %v] after Reanalyze, fresh Analyze [%v, %v]", i, v, lo, hi, wlo, whi)
			}
		}
	}
}

// Reanalyze serves the same rows whichever way the engine runs the
// sinks' root paths: every leaf in one call takes the shared pass, one
// leaf per call walks. Both must equal a fresh Analyze of the synced
// tree, bit for bit, on random trees and forests after random edits.
func TestReanalyzeSharedPassMatchesWalks(t *testing.T) {
	forest := func(seed int64) *rctree.Tree {
		rng := rand.New(rand.NewSource(seed))
		b := rctree.NewBuilder()
		var ids []int
		for i := 0; i < 80; i++ {
			r, c := 10+500*rng.Float64(), 1e-15*(1+100*rng.Float64())
			if i%20 == 0 {
				ids = append(ids, b.MustRoot(fmt.Sprintf("n%d", i), r, c))
				continue
			}
			ids = append(ids, b.MustAttach(ids[len(ids)-1-rng.Intn(min(len(ids), 5))], fmt.Sprintf("n%d", i), r, c))
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	for seed := int64(1); seed <= 6; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{N: 200})
		if seed%2 == 0 {
			tree = forest(seed)
		}
		shared, err := Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := moments.NewIncremental(tree)
		if err != nil {
			t.Fatal(err)
		}
		leaves := tree.Leaves()
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 5; round++ {
			for e := 0; e < 3; e++ {
				node := rng.Intn(tree.N())
				if err := inc.SetR(node, 10+500*rng.Float64()); err != nil {
					t.Fatal(err)
				}
				if err := inc.SetC(node, 1e-15*(1+500*rng.Float64())); err != nil {
					t.Fatal(err)
				}
			}
			st := inc.Stats()
			if err := shared.Reanalyze(inc, leaves); err != nil {
				t.Fatal(err)
			}
			if got := inc.Stats(); got.Swept == st.Swept || got.Walked != st.Walked {
				t.Fatalf("seed %d: every leaf in one call swept %d and walked %d nodes; want a shared pass",
					seed, got.Swept-st.Swept, got.Walked-st.Walked)
			}
			st = inc.Stats()
			for _, l := range leaves {
				if err := single.Reanalyze(inc, []int{l}); err != nil {
					t.Fatal(err)
				}
			}
			if got := inc.Stats(); got.Swept != st.Swept {
				t.Fatalf("seed %d: one leaf per call swept %d nodes; want walks", seed, got.Swept-st.Swept)
			}
			for _, l := range leaves {
				if !boundsBitsEqual(shared.Bounds[l], single.Bounds[l]) {
					t.Fatalf("seed %d round %d: leaf %d:\nshared pass %+v\nwalk        %+v", seed, round, l, shared.Bounds[l], single.Bounds[l])
				}
			}
			if rng.Intn(2) == 0 {
				inc.Commit()
			}
		}
		if err := inc.SyncTree(); err != nil {
			t.Fatal(err)
		}
		fresh, err := Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leaves {
			if !boundsBitsEqual(shared.Bounds[l], fresh.Bounds[l]) {
				t.Fatalf("seed %d: leaf %d:\nreanalyzed %+v\nfresh      %+v", seed, l, shared.Bounds[l], fresh.Bounds[l])
			}
		}
	}
}
