package batch

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"elmore/internal/core"
	"elmore/internal/health"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/topo"
)

// sinkFuzzTree builds the tree a FuzzSinkBounds input names. Shape 0
// is a topo.Random tree; 1 is a random forest (a node hangs from the
// source with probability 1/4); 2 is that forest plus a three-node root
// component with no capacitance, where every node has μ2 = 0; 3 is the
// forest with one element pair large enough that the moment sweeps
// overflow, so health checks fire.
func sinkFuzzTree(seed int64, n int, shape uint8) *rctree.Tree {
	if shape == 0 {
		return topo.Random(seed, topo.RandomOptions{N: n})
	}
	rng := rand.New(rand.NewSource(seed))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	hot := rng.Intn(n)
	b := rctree.NewBuilder()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		r, c := logU(1, 1e4), logU(1e-16, 1e-12)
		if shape == 3 && i == hot {
			r, c = 1e308, 1e308
		}
		if i == 0 || rng.Intn(4) == 0 {
			b.MustRoot(name, r, c)
		} else {
			b.MustAttach(rng.Intn(i), name, r, c)
		}
	}
	if shape == 2 {
		z := b.MustRoot("z0", 50, 0)
		b.MustAttach(z, "z1", 20, 0)
		b.MustAttach(z, "z2", 30, 0)
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// sameBoundsBits reports whether two Bounds agree in their node name and
// in every field bit for bit (so NaN matches NaN and -0 differs from +0).
func sameBoundsBits(a, b core.Bounds) bool {
	if a.Node != b.Node {
		return false
	}
	x := [...]float64{a.Elmore, a.Sigma, a.Mu2, a.Mu3, a.Skewness, a.Lower, a.SinglePole, a.PRHTmin, a.PRHTmax, a.RiseTime}
	y := [...]float64{b.Elmore, b.Sigma, b.Mu2, b.Mu3, b.Skewness, b.Lower, b.SinglePole, b.PRHTmin, b.PRHTmax, b.RiseTime}
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
			return false
		}
	}
	return true
}

func sameInputBits(a, b core.InputBounds) bool {
	x := [...]float64{a.Upper, a.Lower, a.OutputSigma, a.OutputSkew}
	y := [...]float64{b.Upper, b.Lower, b.OutputSigma, b.OutputSkew}
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
			return false
		}
	}
	return true
}

// FuzzSinkBounds holds the engine's net path, which evaluates bounds at
// the requested sinks only (core.BoundsAt), to a full core.Analyze of
// the same tree. The input picks a tree (sinkFuzzTree), a sink list
// (each byte names node b mod N, so lists come unordered and repeated;
// an empty list means every node; byte 255 names a node the tree lacks)
// and an input (a step or one of two ramps). Under each health setting
// (no monitor, a counting one, a strict one) and with and without a
// moment cache:
//
//   - the job fails exactly when Analyze fails, with its error text, or
//     else with the first missing sink;
//   - otherwise every SinkBounds.Bounds is Analyze's Bounds at that
//     node and every Input is Analysis.ForInput there, bit for bit;
//   - the monitor records the same events, in the same order, for the
//     job as for Analyze.
func FuzzSinkBounds(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), []byte{}, uint8(0))
	f.Add(int64(2), uint8(30), uint8(0), []byte{29, 3, 3, 17, 0}, uint8(1))
	f.Add(int64(3), uint8(50), uint8(1), []byte{7, 49, 7, 2}, uint8(2))
	f.Add(int64(4), uint8(12), uint8(2), []byte{13, 1, 14, 12}, uint8(1))
	f.Add(int64(5), uint8(20), uint8(2), []byte{}, uint8(2))
	f.Add(int64(6), uint8(9), uint8(3), []byte{4, 0}, uint8(0))
	f.Add(int64(7), uint8(25), uint8(1), []byte{5, 255, 6}, uint8(1))
	f.Add(int64(8), uint8(16), uint8(3), []byte{255}, uint8(2))
	f.Add(int64(9), uint8(0), uint8(0), []byte{0, 0}, uint8(1))
	inputs := []signal.Signal{signal.Step{}, signal.SaturatedRamp{Tr: 100e-12}, signal.SaturatedRamp{Tr: 1e-9}}
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, sinkBytes []byte, input uint8) {
		if len(sinkBytes) > 64 {
			sinkBytes = sinkBytes[:64]
		}
		tree := sinkFuzzTree(seed, 1+int(size)%64, shape%4)
		n := tree.N()
		var sinks []string
		for _, b := range sinkBytes {
			if b == 255 {
				sinks = append(sinks, "no-such-node")
			} else {
				sinks = append(sinks, tree.Name(int(b)%n))
			}
		}
		sig := inputs[int(input)%len(inputs)]
		prev := health.SetDefault(nil)
		defer health.SetDefault(prev)

		for _, mode := range []string{"none", "counting", "strict"} {
			// monitor installs a fresh monitor for this mode and returns
			// the buffer its events go to.
			monitor := func() *bytes.Buffer {
				var buf bytes.Buffer
				switch mode {
				case "counting":
					health.SetDefault(health.New(&buf, false))
				case "strict":
					health.SetDefault(health.New(&buf, true))
				default:
					health.SetDefault(nil)
				}
				return &buf
			}
			events := monitor()
			want, wantErr := core.Analyze(tree)
			wantEvents := events.String()
			for _, cache := range []bool{false, true} {
				label := fmt.Sprintf("%s/cache=%v", mode, cache)
				e := &Engine{Workers: 1}
				if cache {
					e.Cache = NewCache()
				}
				events := monitor()
				res := e.Run(context.Background(), []Job{{ID: "j", Net: &NetJob{Tree: tree, Sinks: sinks, Input: sig}}})[0]
				health.SetDefault(nil)
				if got := events.String(); got != wantEvents {
					t.Fatalf("%s: job events\n%s\nAnalyze events\n%s", label, got, wantEvents)
				}
				missing := ""
				for _, s := range sinks {
					if _, ok := tree.Index(s); !ok {
						missing = s
						break
					}
				}
				switch {
				case wantErr != nil:
					if res.Err == nil || res.Err.Error() != wantErr.Error() {
						t.Fatalf("%s: job error %v, Analyze error %v", label, res.Err, wantErr)
					}
					continue
				case missing != "":
					if w := fmt.Sprintf("batch: net has no node %q", missing); res.Err == nil || res.Err.Error() != w {
						t.Fatalf("%s: job error %v, want %s", label, res.Err, w)
					}
					continue
				case res.Err != nil:
					t.Fatalf("%s: job failed: %v", label, res.Err)
				}
				nodes := make([]int, 0, n)
				for _, s := range sinks {
					nodes = append(nodes, tree.MustIndex(s))
				}
				if len(sinks) == 0 {
					for i := 0; i < n; i++ {
						nodes = append(nodes, i)
					}
				}
				got := res.Net.Sinks
				if len(got) != len(nodes) {
					t.Fatalf("%s: %d sinks reported, want %d", label, len(got), len(nodes))
				}
				_, isStep := sig.(signal.Step)
				for k, i := range nodes {
					if got[k].Node != tree.Name(i) || !sameBoundsBits(got[k].Bounds, want.Bounds[i]) {
						t.Fatalf("%s: sink %d (node %d) = %+v, Analyze has %+v", label, k, i, got[k], want.Bounds[i])
					}
					if isStep {
						if got[k].Input != nil {
							t.Fatalf("%s: sink %d carries input bounds under a step", label, k)
						}
						continue
					}
					wantIn, err := want.ForInput(i, sig)
					if err != nil {
						t.Fatal(err)
					}
					if got[k].Input == nil || !sameInputBits(*got[k].Input, wantIn) {
						t.Fatalf("%s: sink %d input bounds %+v, Analysis.ForInput has %+v", label, k, got[k].Input, wantIn)
					}
				}
			}
		}
	})
}

// netJobHeapPerNode is the marginal heap budget of one cache-warm net
// job, in bytes per tree node, with no health monitor. The moment set,
// PRH terms included, is a cache hit, so nothing the job allocates
// grows with the tree; everything grows with the sinks (0.12 measured
// on this test's 20000-node tree, 8 sinks). One byte per node is the
// smallest whole budget, and any per-node array trips it.
const netJobHeapPerNode = 1

// TestNetJobHeapPerNode pins that a cache-warm net job allocates
// nothing per node: no per-node bounds, no PRH columns. It runs
// cache-warm jobs for 8 sinks of a 20000-node tree and divides the heap
// bytes allocated by the extra jobs of a 24-job run over an 8-job run by
// the node count, which cancels the engine's fixed setup.
func TestNetJobHeapPerNode(t *testing.T) {
	prev := health.SetDefault(nil)
	t.Cleanup(func() { health.SetDefault(prev) })
	tree := topo.Random(7, topo.RandomOptions{N: 20000})
	var sinks []string
	for k := 0; k < 8; k++ {
		sinks = append(sinks, tree.Name(k*tree.N()/8+1))
	}
	e := &Engine{Workers: 1, Cache: NewCache()}
	mk := func(k int) []Job {
		jobs := make([]Job, k)
		for i := range jobs {
			jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Net: &NetJob{Tree: tree, Sinks: sinks}}
		}
		return jobs
	}
	for _, r := range e.Run(context.Background(), mk(2)) { // warm the moment cache
		if r.Err != nil {
			t.Fatalf("warm-up job %s: %v", r.ID, r.Err)
		}
	}
	heap := func(k int) uint64 {
		jobs := mk(k)
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.Run(context.Background(), jobs)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := heap(8), heap(24)
	perNode := float64(large-small) / 16 / float64(tree.N())
	t.Logf("net job: %.2f heap bytes per node (runs: 8 jobs %d B, 24 jobs %d B)", perNode, small, large)
	if perNode > netJobHeapPerNode {
		t.Errorf("net job = %.2f heap bytes per node, budget %d", perNode, netJobHeapPerNode)
	}
}
