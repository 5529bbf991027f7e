package awe

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func TestSingleRCMoments(t *testing.T) {
	// H(s) = 1/(1 + sRC) => m_q = (-RC)^q.
	const r, c = 1000.0, 1e-12
	s := singleRCSet(t, r, c, 4)
	rc := r * c
	for q := 0; q <= 4; q++ {
		want := math.Pow(-rc, float64(q))
		if got := s.M(q, 0); !approx(got, want, 1e-12) {
			t.Errorf("m_%d = %v, want %v", q, got, want)
		}
	}
}

func TestComputeRejectsBadOrder(t *testing.T) {
	tree := topo.Fig1Tree()
	if _, err := ComputeMoments(tree, 0); err == nil {
		t.Errorf("order 0 should be rejected")
	}
}

func TestOrderAndTreeAccessors(t *testing.T) {
	tree := topo.Fig1Tree()
	s, err := ComputeMoments(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Order() != 3 || s.Tree() != tree {
		t.Errorf("accessors wrong")
	}
}

// The raw recurrence and the cumulant sweep of package moments are two
// routes to the same mean: T_D = -m_1 to roundoff.
func TestMomentsMatchElmore(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 40)
		s, err := ComputeMoments(tree, 1)
		if err != nil {
			return false
		}
		td := moments.ElmoreDelays(tree)
		for i := 0; i < tree.N(); i++ {
			if !approx(-s.M(1, i), td[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMPanicsOutOfRange(t *testing.T) {
	ms := singleRCSet(t, 1, 1e-12, 2)
	for _, q := range []int{-1, 5} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "order") || !strings.Contains(msg, "out of range") {
					t.Errorf("M(%d, 0): panic %q, want an order-out-of-range panic", q, msg)
				}
			}()
			ms.M(q, 0)
		}()
	}
}

func TestMRejectsBadNodeIndex(t *testing.T) {
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", 100, 1e-12)
	b.MustAttach(n1, "n2", 50, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ComputeMoments(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "node index") || !strings.Contains(msg, "out of range") {
				t.Errorf("%s: unhelpful panic message %q", name, msg)
			}
		}()
		f()
	}
	mustPanic("negative index", func() { ms.M(1, -1) })
	mustPanic("index == N", func() { ms.M(1, tree.N()) })
	mustPanic("index past N", func() { ms.M(0, tree.N()+7) })
	// In-range lookups still work after the check.
	if got := ms.M(0, tree.N()-1); got != 1 {
		t.Errorf("M(0, last) = %v, want 1", got)
	}
}
