package rctree

import (
	"fmt"
	"testing"
)

// chainTree builds an n-node single chain (degenerate depth: n levels
// of width 1).
func chainTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	b := NewBuilder()
	prev, err := b.Root("n0", 1, 1e-15)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < n; i++ {
		prev, err = b.Attach(prev, fmt.Sprintf("n%d", i), 1, 1e-15)
		if err != nil {
			tb.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// starTree builds a hub with n leaves (degenerate width: one level of
// n nodes).
func starTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	b := NewBuilder()
	hub, err := b.Root("hub", 1, 1e-15)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := b.Attach(hub, fmt.Sprintf("leaf%d", i), 2, 2e-15); err != nil {
			tb.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// Compile must survive the two degenerate extremes — a chain a million
// levels deep and a star with one level a hundred thousand nodes wide —
// and DownstreamC must sweep both.
func TestCompileDegenerateExtremes(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-topology stress test")
	}
	const (
		chainN = 1_000_000
		starN  = 100_000
	)
	for _, tc := range []struct {
		name     string
		tree     *Tree
		levels   int
		maxWidth int
	}{
		{"chain1M", chainTree(t, chainN), chainN, 1},
		{"star100k", starTree(t, starN), 2, starN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := Compile(tc.tree)
			n := tc.tree.N()
			if cp.N() != n {
				t.Fatalf("N = %d, want %d", cp.N(), n)
			}
			if got := cp.Levels(); got != tc.levels {
				t.Fatalf("Levels = %d, want %d", got, tc.levels)
			}
			maxWidth := 0
			for l := 0; l < cp.Levels(); l++ {
				maxWidth = max(maxWidth, int(cp.LevelStart[l+1]-cp.LevelStart[l]))
			}
			if maxWidth != tc.maxWidth {
				t.Fatalf("widest level = %d, want %d", maxWidth, tc.maxWidth)
			}
			for i := 0; i < n; i++ {
				if p := cp.Parent[i]; p != Source && int(p) >= i {
					t.Fatalf("compiled node %d has parent %d (not topological)", i, p)
				}
				if cp.ToUser[cp.FromUser[i]] != int32(i) {
					t.Fatalf("permutation not a bijection at %d", i)
				}
			}

			// Sanity anchor: the root sees every capacitor exactly once.
			rootUser := tc.tree.Roots()[0]
			wantRoot := 0.0
			for i := 0; i < n; i++ {
				wantRoot += tc.tree.C(i)
			}
			got := tc.tree.DownstreamC()[rootUser]
			if diff := got - wantRoot; diff > 1e-9*wantRoot || diff < -1e-9*wantRoot {
				t.Fatalf("root downstream C = %v, want ~%v", got, wantRoot)
			}
		})
	}
}
