package core

import (
	"fmt"
	"runtime/debug"
	"testing"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/moments"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// analyzeAllocBudget is the allocation count for a full Analyze at
// any tree size: 2 here (Analysis, Bounds slice) + 2 in
// moments.Compute, whose set carries the PRH terms too. Every sweep is
// a plain loop over the tree's arrays and its own outputs, so nothing
// is boxed for a closure, no scratch is allocated, and the count does
// not grow with the tree.
const analyzeAllocBudget = 4

// TestAnalyzeAllocBudget holds the budget on a small tree and on a
// large bushy one (20000 nodes, 41 levels, ~490 nodes per level).
// testing.AllocsPerRun pins GOMAXPROCS to 1, which the Analyze path
// does not notice: moments, core, rctree and health read neither
// GOMAXPROCS nor the CPU count and start no goroutine. The collector is
// off while it counts: a 20000-node Analyze allocates ~3 MB, enough to
// start a GC cycle per call, and the runtime's own allocations during
// a cycle (one per cycle here, two at GOMAXPROCS=2) are not Analyze's.
func TestAnalyzeAllocBudget(t *testing.T) {
	if health.Enabled() {
		t.Skip("health monitor installed; the instrumented path allocates by design")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		n, runs int
		seed    int64
	}{{300, 200, 42}, {20000, 10, 7}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			tree := topo.Random(tc.seed, topo.RandomOptions{N: tc.n})
			if _, err := Analyze(tree); err != nil { // warm the telemetry counters
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(tc.runs, func() {
				if _, err := Analyze(tree); err != nil {
					t.Fatal(err)
				}
			})
			if got > analyzeAllocBudget {
				t.Errorf("Analyze on %d nodes = %.1f allocs/op, budget %d", tc.n, got, analyzeAllocBudget)
			}
		})
	}
}

// TestDisabledObservabilityZeroAlloc asserts that the hooks Analyze
// leaves permanently in its hot path — fault-injection points, health
// gates, telemetry counters — are allocation-free when no injector,
// monitor, or registry is installed. The time bound is checked by
// BenchmarkDisabledObservabilityPath (a few ns/op: three atomic loads
// and nil checks).
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	if health.Enabled() || faultinject.Enabled() {
		t.Skip("injector or monitor installed; disabled-path contract does not apply")
	}
	got := testing.AllocsPerRun(1000, func() {
		if err := faultinject.Fire("core.analyze.bench"); err != nil {
			t.Fatal(err)
		}
		if health.Enabled() {
			t.Fatal("health flipped on mid-test")
		}
		telemetry.C("core.analyses").Inc()
		telemetry.C("core.nodes_analyzed").Add(300)
	})
	if got != 0 {
		t.Errorf("disabled observability path = %.1f allocs/op, want 0", got)
	}
}

// Reanalyze over every leaf of a 10000-node tree allocates nothing after
// its first call: the T_R column, the output scratch and the engine's
// shared-pass columns are sized once and reused.
func TestReanalyzeAllocFree(t *testing.T) {
	if health.Enabled() {
		t.Skip("health monitor installed; the instrumented path allocates by design")
	}
	tree := topo.Random(42, topo.RandomOptions{N: 10000})
	an, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	c0 := tree.C(0)
	reanalyze := func() {
		if err := inc.SetC(0, 2*c0); err != nil {
			t.Fatal(err)
		}
		if err := an.Reanalyze(inc, leaves); err != nil {
			t.Fatal(err)
		}
		inc.Revert()
	}
	reanalyze()
	if got := testing.AllocsPerRun(20, reanalyze); got != 0 {
		t.Errorf("Reanalyze over %d leaves = %.1f allocs/op, want 0", len(leaves), got)
	}
}

// BenchmarkDisabledObservabilityPath measures the fixed overhead the
// observability hooks add to every Analyze when everything is turned
// off. The contract is a handful of nanoseconds and zero allocations
// per composite op (one Fire, one Enabled, two counter updates).
func BenchmarkDisabledObservabilityPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := faultinject.Fire("core.analyze.bench"); err != nil {
			b.Fatal(err)
		}
		if health.Enabled() {
			b.Fatal("health must be disabled for this benchmark")
		}
		telemetry.C("core.analyses").Inc()
		telemetry.C("core.nodes_analyzed").Add(300)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tree := topo.Random(42, topo.RandomOptions{N: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tree); err != nil {
			b.Fatal(err)
		}
	}
}
