package moments

import (
	"errors"
	"strings"
	"testing"

	"elmore/internal/health"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

func installHealth(t *testing.T, strict bool) (*health.Monitor, *strings.Builder, *telemetry.Registry) {
	t.Helper()
	var sb strings.Builder
	m := health.New(&sb, strict)
	prevM := health.SetDefault(m)
	reg := telemetry.NewRegistry()
	prevR := telemetry.SetDefault(reg)
	t.Cleanup(func() {
		health.SetDefault(prevM)
		telemetry.SetDefault(prevR)
	})
	return m, &sb, reg
}

// overflowTree has finite element values the rctree API accepts whose
// products overflow float64 — the realistic way non-finite numbers
// enter the moment recurrences, since SetR/SetC reject NaN and Inf at
// the boundary.
func overflowTree(t *testing.T) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", 1e308, 1e308)
	b.MustAttach(n1, "n2", 1e308, 1e308)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestComputeNonFiniteFailSoft(t *testing.T) {
	m, sb, reg := installHealth(t, false)
	s, err := Compute(overflowTree(t))
	if err != nil {
		t.Fatalf("non-strict monitor must not fail the computation: %v", err)
	}
	if s == nil {
		t.Fatal("fail-soft path must still return the set")
	}
	if got := reg.Counter("health.moments.nonfinite").Value(); got != 1 {
		t.Errorf("health.moments.nonfinite = %d, want 1", got)
	}
	if got := reg.Counter("health.violations").Value(); got != 1 {
		t.Errorf("health.violations = %d, want 1", got)
	}
	if m.Violations() != 1 {
		t.Errorf("monitor violations = %d, want 1", m.Violations())
	}
	line := sb.String()
	for _, want := range []string{`"check":"moments.nonfinite"`, `"severity":"violation"`, `"tree":"n2-`, `"node":"`} {
		if !strings.Contains(line, want) {
			t.Errorf("event %q missing %q", line, want)
		}
	}
}

func TestComputeNonFiniteStrictFails(t *testing.T) {
	installHealth(t, true)
	_, err := Compute(overflowTree(t))
	var v *health.Violation
	if !errors.As(err, &v) {
		t.Fatalf("strict monitor must fail Compute with *health.Violation, got %v", err)
	}
	if v.Check != "moments.nonfinite" {
		t.Errorf("check = %q", v.Check)
	}
}

// A PRH column can overflow where the moments stay finite: one node
// with R = 1e200 and C = 1e-200 has T_D = 1, μ2 = 1, μ3 = 2 and
// R_ii = 1e200, but S = R_ii² C overflows. The sentinel scans every
// column of the set and names the column of the first bad entry.
func TestComputeNonFinitePRHColumnNamed(t *testing.T) {
	_, sb, _ := installHealth(t, false)
	b := rctree.NewBuilder()
	b.MustRoot("n1", 1e200, 1e-200)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if s.Elmore(0) != 1 || s.Mu2(0) != 1 || s.Mu3(0) != 2 || s.PathResistance(0) != 1e200 {
		t.Fatalf("T_D, mu2, mu3, R_ii = %v, %v, %v, %v; want 1, 1, 2, 1e200",
			s.Elmore(0), s.Mu2(0), s.Mu3(0), s.PathResistance(0))
	}
	if line := sb.String(); !strings.Contains(line, "(first: s)") {
		t.Errorf("event %q does not name the S column", line)
	}
}

func TestComputeHealthyTreeNoEvents(t *testing.T) {
	m, _, _ := installHealth(t, true)
	tree := twoNodeChain(t, 100, 1e-12, 50, 2e-12)
	if _, err := Compute(tree); err != nil {
		t.Fatalf("healthy tree failed under strict monitor: %v", err)
	}
	if m.Events() != 0 {
		t.Errorf("healthy tree recorded %d events", m.Events())
	}
}

// The +0 Sigma contract from PR 2: a zero-variance node clamps to +0.
// New contract: the clamp is countable as a health note.
func TestSigmaDegenerateEmitsNote(t *testing.T) {
	m, sb, reg := installHealth(t, true) // strict: notes must never fail
	// Zero capacitance everywhere => mu2 == 0 at every node.
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", 100, 1e-12)
	b.MustAttach(n1, "n2", 50, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if err := tree.SetC(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sigma(0); got != 0 {
		t.Fatalf("Sigma = %v, want +0", got)
	}
	if got := reg.Counter("health.moments.sigma_degenerate").Value(); got != 1 {
		t.Errorf("health.moments.sigma_degenerate = %d, want 1", got)
	}
	if m.Violations() != 0 {
		t.Errorf("a degenerate note must not count as a violation (got %d)", m.Violations())
	}
	if !strings.Contains(sb.String(), `"severity":"note"`) {
		t.Errorf("event not a note: %s", sb.String())
	}
	// Healthy node on a healthy tree: no event.
	healthy := twoNodeChain(t, 100, 1e-12, 50, 2e-12)
	hs, err := Compute(healthy)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Events()
	if hs.Sigma(1) <= 0 {
		t.Fatal("healthy sigma must be positive")
	}
	if m.Events() != before {
		t.Error("healthy Sigma recorded an event")
	}
}
