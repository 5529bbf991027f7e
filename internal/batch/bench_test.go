package batch

import (
	"context"
	"fmt"
	"testing"

	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// benchJobs builds n distinct small nets (distinct topologies and
// seeds, so a moment cache cannot collapse the work) and wraps each in
// a net job. Built outside the timed region.
func benchJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		tree := topo.Random(int64(i)+1, topo.RandomOptions{N: 24 + i%17})
		jobs[i] = Job{ID: fmt.Sprintf("n%d", i), Net: &NetJob{Tree: tree}}
	}
	return jobs
}

// BenchmarkBatch10kNets measures the worker-pool scaling the engine
// exists for: the same 10k-net batch at 1, 2, 4, and 8 workers.
// Near-linear scaling shows up as ns/op dropping ~1/workers; the
// acceptance bar is >= 4x at 8 workers over 1.
func BenchmarkBatch10kNets(b *testing.B) {
	jobs := benchJobs(10000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			eng := &Engine{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				res := eng.Run(context.Background(), jobs)
				if len(res) != len(jobs) {
					b.Fatalf("got %d results, want %d", len(res), len(jobs))
				}
			}
		})
	}
}

// BenchmarkBatchCached measures sharing through a tree-cache entry:
// every job loads the same deck through the engine's TreeCache, so all
// but the first parse are cache hits and all but one job reuse the
// entry's moment set.
func BenchmarkBatchCached(b *testing.B) {
	deck := netlist.Format(topo.Chain(64, 100, 1e-13), "")
	var trees *TreeCache // fresh per iteration
	load := func() (*rctree.Tree, error) { return trees.Load("", deck) }
	jobs := make([]Job, 2000)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("c%d", i), Net: &NetJob{Load: load}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		trees = NewTreeCache(DefaultHotTrees, "batch.hot_tree")
		eng := &Engine{Workers: 8, Trees: trees}
		res := eng.Run(context.Background(), jobs)
		if len(res) != len(jobs) {
			b.Fatalf("got %d results, want %d", len(res), len(jobs))
		}
	}
}
