package rctree

import (
	"math/rand"
	"testing"
)

// randomTestTree builds a seeded random tree without importing topo
// (which would cycle). Parents are drawn from every node added so far,
// so children of one parent interleave with other nodes in index order.
func randomTestTree(seed int64, n int) *Tree {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	ids := []int{b.MustRoot("n0", 1+rng.Float64(), 1e-15*(1+rng.Float64()))}
	for i := 1; i < n; i++ {
		parent := ids[rng.Intn(len(ids))]
		ids = append(ids, b.MustAttach(parent, "", 1+rng.Float64(), 1e-15*rng.Float64()))
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// The sweep layout is the tree itself: Parent[i] < i for every
// non-root (so index order is topological), the CSR child blocks list
// exactly the nodes whose parent is i, in attach (index) order, and R
// and C are the tree's values. Compile, the deprecated name of
// Tree.Arrays, returns the same arrays.
func TestCompileInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tree := randomTestTree(seed, 1+int(seed)*13)
		a := tree.Arrays()
		n := tree.N()
		if len(a.Parent) != n || len(a.R) != n || len(a.C) != n || len(a.KidStart) != n+1 {
			t.Fatalf("seed %d: array lengths %d/%d/%d/%d for %d nodes",
				seed, len(a.Parent), len(a.R), len(a.C), len(a.KidStart), n)
		}
		if c := Compile(tree); &c.Parent[0] != &a.Parent[0] || &c.R[0] != &a.R[0] {
			t.Fatalf("seed %d: Compile does not return the tree's own arrays", seed)
		}
		want := make([][]int32, n)
		for i := 0; i < n; i++ {
			if a.R[i] != tree.R(i) || a.C[i] != tree.C(i) {
				t.Fatalf("seed %d: element values differ at %d", seed, i)
			}
			p := int(a.Parent[i])
			if p != tree.Parent(i) {
				t.Fatalf("seed %d: Parent[%d] = %d, tree says %d", seed, i, p, tree.Parent(i))
			}
			if p == Source {
				continue
			}
			if p >= i {
				t.Fatalf("seed %d: parent %d not before child %d", seed, p, i)
			}
			want[p] = append(want[p], int32(i))
		}
		if int(a.KidStart[n]) != len(a.Kids) {
			t.Fatalf("seed %d: KidStart[n] = %d, len(Kids) = %d", seed, a.KidStart[n], len(a.Kids))
		}
		for i := 0; i < n; i++ {
			got := a.Kids[a.KidStart[i]:a.KidStart[i+1]]
			if len(got) != len(want[i]) {
				t.Fatalf("seed %d: node %d has %d children, want %d", seed, i, len(got), len(want[i]))
			}
			for k := range got {
				if got[k] != want[i][k] {
					t.Fatalf("seed %d: node %d child %d = %d, want %d", seed, i, k, got[k], want[i][k])
				}
			}
		}
	}
}

// The layout is the tree, so it can never be stale: SetR/SetC show in
// the arrays at once, and a clone's values are its own.
func TestArraysFollowEdits(t *testing.T) {
	tree := randomTestTree(7, 40)
	a := tree.Arrays()
	if err := tree.SetR(3, a.R[3]*2); err != nil {
		t.Fatal(err)
	}
	if err := tree.SetC(0, 5e-15); err != nil {
		t.Fatal(err)
	}
	if a.R[3] != tree.R(3) || a.C[0] != 5e-15 {
		t.Fatalf("arrays R[3] = %v, C[0] = %v after SetR/SetC; tree has %v, %v", a.R[3], a.C[0], tree.R(3), tree.C(0))
	}
	cl := tree.Clone()
	if err := cl.SetC(0, 7e-15); err != nil {
		t.Fatal(err)
	}
	if a.C[0] != 5e-15 || cl.Arrays().C[0] != 7e-15 {
		t.Fatal("clone shares element values with the original")
	}
}
