package rctree

import (
	"math"
	"sync"
	"testing"
)

// Regression: the pre-fix Fingerprint mixed name bytes with no length
// or terminator, so a circuit's identity bytes formed one undelimited
// stream. The two trees below are different circuits (different names,
// different element values) whose old byte streams were identical —
// shifting one byte out of node 0's name absorbs the adjacent
// fixed-width parent/R/C fields. With per-name length mixing their
// fingerprints must differ.
func TestFingerprintNameBoundary(t *testing.T) {
	build := func(name0 string, r0, c0 float64, name1 string) *Tree {
		b := NewBuilder()
		b.MustRoot(name0, r0, c0)
		b.MustRoot(name1, 1, 1e-12)
		tree, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return tree
	}
	x := build("a\x00", math.Float64frombits(0x0010000000000001), 0, "c")
	y := build("a", math.Float64frombits(0x1000000000000100), 0, "\x00c")
	if x.Fingerprint() == y.Fingerprint() {
		t.Fatalf("distinct circuits share fingerprint %x (name-boundary collision)", x.Fingerprint())
	}
	// The classic no-separator pair must differ too.
	p := build("ab", 2, 1e-12, "c")
	q := build("a", 2, 1e-12, "bc")
	if p.Fingerprint() == q.Fingerprint() {
		t.Fatal("adjacent-name split pair collides")
	}
}

// Fingerprint stays sensitive to every component and stable across
// identical rebuilds.
func TestFingerprintSensitivity(t *testing.T) {
	mk := func() *Tree { return randomTestTree(3, 30) }
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical circuits must share a fingerprint")
	}
	// The fingerprint is kept per generation: every mutator must bump
	// it, so the next call hashes the new values.
	edits := []struct {
		name string
		edit func() error
	}{
		{"SetR", func() error { return a.SetR(5, a.R(5)*1.0000001) }},
		{"SetC", func() error { return a.SetC(7, a.C(7)*1.0000001) }},
		{"SetValues", func() error {
			c := make([]float64, a.N())
			for i := range c {
				c[i] = a.C(i)
			}
			c[3] *= 1.0000001
			return a.SetValues(nil, c)
		}},
		{"ScaleValues", func() error { return a.ScaleValues(1, 1.0000001) }},
	}
	for _, e := range edits {
		fp := a.Fingerprint()
		if a.Fingerprint() != fp {
			t.Fatalf("before %s: two calls at one generation disagree", e.name)
		}
		if err := e.edit(); err != nil {
			t.Fatal(err)
		}
		got := a.Fingerprint()
		if got == fp {
			t.Fatalf("%s did not change the fingerprint", e.name)
		}
		if want := a.Clone().Fingerprint(); got != want {
			t.Fatalf("after %s: fingerprint %x, a fresh hash of the same values %x", e.name, got, want)
		}
	}
}

// Concurrent first calls on one tree agree (run under -race: the kept
// value is published atomically).
func TestFingerprintConcurrent(t *testing.T) {
	tree := randomTestTree(11, 2000)
	want := tree.Clone().Fingerprint()
	const workers = 8
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				got[w] = tree.Fingerprint()
			}
		}(w)
	}
	wg.Wait()
	for w, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d: fingerprint %x, want %x", w, fp, want)
		}
	}
}

func TestRootsCached(t *testing.T) {
	b := NewBuilder()
	r1 := b.MustRoot("r1", 1, 1e-15)
	b.MustAttach(r1, "k", 1, 1e-15)
	b.MustRoot("r2", 1, 1e-15)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2}
	got := tree.Roots()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Roots() = %v, want %v", got, want)
	}
	// Same backing array on repeat calls (cached, not rescanned), and
	// clones carry their own consistent copy.
	if &tree.Roots()[0] != &got[0] {
		t.Fatal("Roots() is not cached")
	}
	cl := tree.Clone()
	cr := cl.Roots()
	if len(cr) != 2 || cr[0] != 0 || cr[1] != 2 {
		t.Fatalf("clone Roots() = %v", cr)
	}
	if &cr[0] == &got[0] {
		t.Fatal("clone shares the original's roots slice")
	}
}
