package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/topo"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestOptimizeGeneratedTopology(t *testing.T) {
	out, _, err := runCLI(t, "-nodes", "200", "-seed", "3", "-passes", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"worst T_D", "total C", "verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOptimizeImprovesWorstDelay(t *testing.T) {
	tree := topo.Random(11, topo.RandomOptions{N: 150})
	res, err := optimize(tree, []float64{0.5, 1, 2}, 1.2, 3, false, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FinalWorst < res.InitialWorst) {
		t.Errorf("no improvement: %v -> %v", res.InitialWorst, res.FinalWorst)
	}
	if res.FinalTotalC > res.CapBudget {
		t.Errorf("budget violated: %v > %v", res.FinalTotalC, res.CapBudget)
	}
	if !res.Verified {
		t.Errorf("final state not verified against full recompute")
	}
}

// The budget must bind: with zero headroom every move that adds
// capacitance is rejected, so total C can only go down.
func TestOptimizeRespectsBudget(t *testing.T) {
	tree := topo.Chain(80, 100, 1e-14)
	res, err := optimize(tree, []float64{0.5, 1, 2, 4}, 1.0, 2, false, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTotalC > res.InitialTotalC*(1+1e-12) {
		t.Errorf("total C grew past a 1.0x budget: %v -> %v", res.InitialTotalC, res.FinalTotalC)
	}
}

// The sized tree handed back by SyncTree must reproduce the reported
// final worst delay from scratch — the end-to-end bit-identity check.
func TestOptimizeSyncedTreeMatchesReport(t *testing.T) {
	tree := topo.Star(6, 20, 150, 5e-15)
	res, err := optimize(tree, []float64{0.7, 1, 1.4}, 1.3, 2, false, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := moments.Compute(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	worst := math.Inf(-1)
	for _, l := range tree.Leaves() {
		if d := ms.Elmore(l); d > worst {
			worst = d
		}
	}
	if math.Float64bits(worst) != math.Float64bits(res.FinalWorst) {
		t.Errorf("synced tree worst T_D %v != reported %v", worst, res.FinalWorst)
	}
}

func TestOptimizeNetlistInputAndWidthsOut(t *testing.T) {
	dir := t.TempDir()
	deck := filepath.Join(dir, "net.sp")
	var sb strings.Builder
	if err := netlist.Write(&sb, topo.Chain(30, 120, 2e-14), "chain30"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deck, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	widthsOut := filepath.Join(dir, "sizes.txt")
	out, _, err := runCLI(t, "-passes", "1", "-out", widthsOut, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nodes          30") {
		t.Errorf("netlist input not used:\n%s", out)
	}
	data, err := os.ReadFile(widthsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 30 {
		t.Errorf("widths file has %d lines, want 30", len(lines))
	}
}

func TestOptimizeFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-budget", "0"},
		{"-budget", "-1"},
		{"-passes", "0"},
		{"-widths", "0,-1"},
		{"-widths", ""},
		{"-nodes", "1"},
		{"a.sp", "b.sp"},
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v should fail", args)
		}
	}
}

func TestParseWidthsAddsUnit(t *testing.T) {
	ws, err := parseWidths("2,0.5")
	if err != nil {
		t.Fatal(err)
	}
	has1 := false
	for _, w := range ws {
		if w == 1 {
			has1 = true
		}
	}
	if !has1 {
		t.Errorf("width 1 must always be a candidate: %v", ws)
	}
}
