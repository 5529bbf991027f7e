package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/netlist"
)

func TestZipfDrawsDeterministic(t *testing.T) {
	a := zipfDraws(7, 1024, 5000, serveZipfS)
	b := zipfDraws(7, 1024, 5000, serveZipfS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different draws")
	}
	if reflect.DeepEqual(a, zipfDraws(8, 1024, 5000, serveZipfS)) {
		t.Fatal("different seeds gave the same draws")
	}
	counts := map[int]int{}
	for _, d := range a {
		if d < 0 || d >= 1024 {
			t.Fatalf("draw %d outside the pool", d)
		}
		counts[d]++
	}
	// Skewed, not uniform: the hottest net takes far more than 1/1024.
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	if top < 5000/50 {
		t.Errorf("hottest net drawn %d times of 5000; draws look uniform", top)
	}
	if len(counts) < 256 {
		t.Errorf("only %d distinct nets drawn; the working set should exceed the 256-entry LRU", len(counts))
	}
}

func TestGenNetDeterministic(t *testing.T) {
	a := genNet(rand.New(rand.NewSource(3)), "x", 500, 0.5, 0)
	b := genNet(rand.New(rand.NewSource(3)), "x", 500, 0.5, 0)
	if !reflect.DeepEqual(a, b) || string(a.deck()) != string(b.deck()) {
		t.Fatal("same seed gave different nets")
	}
	deep := genNet(rand.New(rand.NewSource(3)), "d", 3000, 0.5, 1000)
	for i := 1; i < 1000; i++ {
		if deep.parent[i] != int32(i-1) {
			t.Fatalf("spine node %d hangs off %d", i, deep.parent[i])
		}
	}
}

// The oracle's references must agree with the repository's direct
// definitions on the deck the program parses.
func TestReferenceMatchesDirectDefinitions(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n := genNet(rand.New(rand.NewSource(seed)), "t", 60, 0.5, int(seed)*5)
		deck, err := netlist.ParseString(string(n.deck()))
		if err != nil {
			t.Fatal(err)
		}
		tree := deck.Tree
		a, err := core.Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		ref := reference(n)
		for i := 0; i < n.size(); i++ {
			name := string(appendNodeName(nil, int32(i)))
			ti, ok := tree.Index(name)
			if !ok {
				t.Fatalf("node %s missing from the parsed deck", name)
			}
			if tree.R(ti) != n.r[i] || tree.C(ti) != n.c[i] {
				t.Fatalf("node %s: parsed values differ from the generated ones", name)
			}
			td := ref.td[i]
			if !near(moments.ElmoreDelayDirect(tree, ti), td, 0) {
				t.Errorf("node %s: ElmoreDelayDirect %g, reference %g", name, moments.ElmoreDelayDirect(tree, ti), td)
			}
			if !near(moments.TRDirect(tree, ti), ref.tr[i], 0) {
				t.Errorf("node %s: TRDirect %g, reference %g", name, moments.TRDirect(tree, ti), ref.tr[i])
			}
			if math.Abs(a.Bounds[ti].Mu2-ref.mu2[i]) > 1e-9*td*td {
				t.Errorf("node %s: mu2 %g, reference %g", name, a.Bounds[ti].Mu2, ref.mu2[i])
			}
			b := a.Bounds[ti]
			rec := sinkRec{Node: name, Elmore: b.Elmore, Lower: b.Lower, PRHTmin: b.PRHTmin, PRHTmax: b.PRHTmax, Sigma: b.Sigma}
			if err := ref.checkSink(rec, 0); err != nil {
				t.Error(err)
			}
			rec.Elmore *= 1.001
			if ref.checkSink(rec, 0) == nil {
				t.Errorf("node %s: a wrong elmore passed the check", name)
			}
		}
	}
}
