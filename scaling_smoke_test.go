package elmore_test

import (
	"os"
	"testing"
	"time"

	"elmore"
	"elmore/internal/topo"
)

// TestAnalyzeChainLinearSmoke guards the bounds pipeline's linear cost
// on its worst topology, a pure chain (depth = n): a full Analyze at
// n=100k must take less than 30x as long as at n=10k. A linear path
// reads ~10x; anything that walks each node's root path reads ~100x.
// It is a timing test, so it only runs when ELMORE_BENCH_SMOKE=1 (the
// `make bench-incremental` lane sets it); each size keeps the fastest
// of a few runs to shed scheduler noise.
func TestAnalyzeChainLinearSmoke(t *testing.T) {
	if os.Getenv("ELMORE_BENCH_SMOKE") != "1" {
		t.Skip("set ELMORE_BENCH_SMOKE=1 to run the chain scaling assertion")
	}
	fastest := func(n, reps int) time.Duration {
		tree := topo.Chain(n, 1, 1e-15)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := elmore.Analyze(tree); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, large := fastest(10000, 9), fastest(100000, 3)
	ratio := float64(large) / float64(small)
	t.Logf("Analyze on a chain: n=10k %v, n=100k %v, ratio %.1f", small, large, ratio)
	if ratio >= 30 {
		t.Fatalf("Analyze at n=100k takes %.1fx the n=10k time (%v vs %v); want < 30x (linear is ~10x)",
			ratio, large, small)
	}
}
