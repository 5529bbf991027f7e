package core

import (
	"runtime"
	"testing"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// analyzeAllocBudget is the allocation count for a full Analyze at
// any tree size: 2 here (Analysis, Bounds slice) + 3 in
// moments.Compute + 2 in moments.ComputePRH. Every sweep is a plain
// loop over the tree's arrays and its own outputs, so nothing is boxed
// for a closure, no scratch is allocated, and the count does not grow
// with the tree.
const analyzeAllocBudget = 7

func TestAnalyzeAllocBudget(t *testing.T) {
	if health.Enabled() {
		t.Skip("health monitor installed; the instrumented path allocates by design")
	}
	tree := topo.Random(42, topo.RandomOptions{N: 300})
	if _, err := Analyze(tree); err != nil { // warm the telemetry counters
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := Analyze(tree); err != nil {
			t.Fatal(err)
		}
	})
	if got > analyzeAllocBudget {
		t.Errorf("Analyze = %.1f allocs/op, budget %d", got, analyzeAllocBudget)
	}
}

// The budget must hold on a large bushy tree with more than one CPU
// too. testing.AllocsPerRun pins GOMAXPROCS to 1, so this counts heap
// objects from runtime.MemStats instead, at GOMAXPROCS=2, on a
// 20000-node tree (41 levels, ~490 nodes per level). The minimum over
// a few calls filters out allocations made by the runtime itself.
func TestAnalyzeAllocBudgetLargeTree(t *testing.T) {
	if health.Enabled() {
		t.Skip("health monitor installed; the instrumented path allocates by design")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tree := topo.Random(7, topo.RandomOptions{N: 20000})
	if _, err := Analyze(tree); err != nil { // warm the telemetry counters
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	best := ^uint64(0)
	for k := 0; k < 5; k++ {
		runtime.ReadMemStats(&before)
		if _, err := Analyze(tree); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best > analyzeAllocBudget {
		t.Errorf("Analyze on %d nodes = %d allocs, budget %d", tree.N(), best, analyzeAllocBudget)
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
