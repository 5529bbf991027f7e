package rctree

import (
	"math/rand"
	"testing"
)

// randomTestTree builds a seeded random tree without importing topo
// (which would cycle).
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

// Compile must produce a permutation that is (a) a bijection, (b)
// topologically ordered (parents before children), (c) breadth-first
// (depth never decreases), with element values and child ranges
// matching the tree.
func TestCompileInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tree := randomTestTree(seed, 1+int(seed)*13)
		c := Compile(tree)
		n := tree.N()
		if c.N() != n {
			t.Fatalf("seed %d: N = %d, want %d", seed, c.N(), n)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			u := int(c.ToUser[i])
			if seen[u] {
				t.Fatalf("seed %d: user index %d mapped twice", seed, u)
			}
			seen[u] = true
			if int(c.FromUser[u]) != i {
				t.Fatalf("seed %d: FromUser[ToUser[%d]] = %d", seed, i, c.FromUser[u])
			}
			if c.R[i] != tree.R(u) || c.C[i] != tree.C(u) {
				t.Fatalf("seed %d: element values differ at compiled %d", seed, i)
			}
			if p := tree.Parent(u); p == Source {
				if c.Parent[i] != Source {
					t.Fatalf("seed %d: compiled %d should be a root", seed, i)
				}
			} else {
				cp := int(c.Parent[i])
				if cp != int(c.FromUser[p]) {
					t.Fatalf("seed %d: parent mismatch at compiled %d", seed, i)
				}
				if cp >= i {
					t.Fatalf("seed %d: parent %d not before child %d", seed, cp, i)
				}
			}
			// Child range must cover exactly the tree's children.
			kids := tree.Children(u)
			lo, hi := int(c.ChildStart[i]), int(c.ChildStart[i+1])
			if hi-lo != len(kids) {
				t.Fatalf("seed %d: compiled %d has %d children, want %d", seed, i, hi-lo, len(kids))
			}
			for k, ch := range kids {
				if int(c.ToUser[lo+k]) != ch {
					t.Fatalf("seed %d: compiled %d child %d mismatch", seed, i, k)
				}
			}
		}
		// BFS order: depth never decreases along the compiled order.
		for i := 1; i < n; i++ {
			if d0, d1 := tree.Depth(int(c.ToUser[i-1])), tree.Depth(int(c.ToUser[i])); d1 < d0 {
				t.Fatalf("seed %d: compiled %d has depth %d after depth %d", seed, i, d1, d0)
			}
		}
	}
}

// Compile caches its plan on the tree and invalidates on SetR/SetC.
func TestCompileCacheInvalidation(t *testing.T) {
	tree := randomTestTree(7, 40)
	c1 := Compile(tree)
	if c2 := Compile(tree); c2 != c1 {
		t.Fatal("second Compile should return the cached plan")
	}
	oldR := tree.R(3)
	if err := tree.SetR(3, oldR*2); err != nil {
		t.Fatal(err)
	}
	c3 := Compile(tree)
	if c3 == c1 {
		t.Fatal("SetR must invalidate the cached plan")
	}
	if got := c3.R[c3.FromUser[3]]; got != oldR*2 {
		t.Fatalf("recompiled R = %v, want %v", got, oldR*2)
	}
	if err := tree.SetC(0, tree.C(0)+1e-15); err != nil {
		t.Fatal(err)
	}
	if c4 := Compile(tree); c4 == c3 {
		t.Fatal("SetC must invalidate the cached plan")
	}
	// Clones must not share the cache.
	cl := tree.Clone()
	if Compile(cl) == Compile(tree) {
		t.Fatal("clone shares the original's compiled plan")
	}
}
