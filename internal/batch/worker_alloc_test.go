package batch

// The steady-state allocation budget of a cache-warm net job in the
// worker loop.

import (
	"context"
	"fmt"
	"testing"

	"elmore/internal/health"
)

// workerJobAllocBudget is the steady-state marginal allocation count
// of one cache-warm net job in the worker loop: the moment set, PRH
// terms included, is a cache hit, so what remains is the sink indices,
// the sink bounds, NetResult + its sinks and the reorder parking — 5.00
// measured; 6 leaves one alloc of headroom before the regression
// trips.
const workerJobAllocBudget = 6

// TestWorkerLoopAllocBudget pins the sharded-cache fast path by
// marginal cost: the difference between a 40-job and an 8-job run
// divided out per job, which cancels the engine's fixed setup
// (channels, goroutines, stats). It measures the path with health
// checking off, so it installs no monitor even where the environment
// asks for one.
func TestWorkerLoopAllocBudget(t *testing.T) {
	prev := health.SetDefault(nil)
	t.Cleanup(func() { health.SetDefault(prev) })
	tree := chainNet(t, 300)
	e := &Engine{Workers: 1, Cache: NewCache()}
	mk := func(k int) []Job {
		jobs := make([]Job, k)
		for i := range jobs {
			jobs[i] = netJob(fmt.Sprintf("j%d", i), tree, "n299")
		}
		return jobs
	}
	for _, r := range e.Run(context.Background(), mk(4)) { // warm the moment cache
		if r.Err != nil {
			t.Fatalf("warm-up job %s: %v", r.ID, r.Err)
		}
	}
	run := func(k int) float64 {
		jobs := mk(k)
		return testing.AllocsPerRun(20, func() { e.Run(context.Background(), jobs) })
	}
	small, large := run(8), run(40)
	perJob := (large - small) / 32
	t.Logf("worker loop: %.2f allocs/job (runs: 8 jobs %.0f, 40 jobs %.0f)", perJob, small, large)
	if perJob > workerJobAllocBudget {
		t.Errorf("worker loop = %.2f allocs/job (runs: 8 jobs %.0f, 40 jobs %.0f), budget %d",
			perJob, small, large, workerJobAllocBudget)
	}
}
