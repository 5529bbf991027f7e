package batch

import (
	"context"
	"testing"

	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/topo"
)

// A transient sweep job must agree with direct sim.Run crossings, and
// identical nets must share one simulation plan through the cache.
func TestTranJobSharedPlan(t *testing.T) {
	const dt = 5e-12
	jobs := make([]Job, 6)
	for k := range jobs {
		jobs[k] = Job{ID: "net", Tran: &TranJob{
			Tree:   topo.Fig1Tree(),
			DT:     dt,
			Inputs: []signal.Signal{nil, signal.SaturatedRamp{Tr: 0.5e-9}},
			Probes: []string{"C5"},
			Levels: []float64{0.1, 0.5, 0.9},
		}}
	}
	cache := NewCache()
	e := &Engine{Workers: 3, Cache: cache}
	results := e.Run(context.Background(), jobs)

	// Oracle: one direct run per input.
	tree := topo.Fig1Tree()
	probe, _ := tree.Index("C5")
	hits := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if r.CacheHit {
			hits++
		}
		if len(r.Tran.Runs) != 2 {
			t.Fatalf("runs = %d, want 2", len(r.Tran.Runs))
		}
		for k, in := range []signal.Signal{nil, signal.SaturatedRamp{Tr: 0.5e-9}} {
			want, err := sim.Run(tree, sim.Options{Input: in, DT: dt, Probes: []int{probe}})
			if err != nil {
				t.Fatal(err)
			}
			run := r.Tran.Runs[k]
			if len(run.Crossings) != 3 {
				t.Fatalf("crossings = %d, want 3", len(run.Crossings))
			}
			for _, tc := range run.Crossings {
				if !tc.Reached {
					t.Fatalf("input %d level %v not reached", k, tc.Level)
				}
				wantT, err := want.Cross(probe, tc.Level)
				if err != nil {
					t.Fatal(err)
				}
				if tc.T != wantT {
					t.Fatalf("input %d level %v: batch %v != direct %v", k, tc.Level, tc.T, wantT)
				}
			}
		}
	}
	if cache.PlanLen() != 1 {
		t.Fatalf("PlanLen = %d, want 1 (identical nets share one plan)", cache.PlanLen())
	}
	if hits != len(jobs)-1 {
		t.Fatalf("cache hits = %d, want %d", hits, len(jobs)-1)
	}
}

// An unreachable level is a per-measurement outcome, not a job error;
// an unknown probe name is a job error; a job with two payloads is
// rejected.
func TestTranJobEdgeCases(t *testing.T) {
	e := &Engine{}
	res := e.Run(context.Background(), []Job{
		{ID: "unreachable", Tran: &TranJob{
			Tree: topo.Fig1Tree(), DT: 5e-12, TEnd: 20e-12,
			Probes: []string{"C5"}, Levels: []float64{0.99},
		}},
		{ID: "badprobe", Tran: &TranJob{
			Tree: topo.Fig1Tree(), DT: 5e-12, Probes: []string{"nope"},
		}},
		{ID: "twopayloads", Net: &NetJob{Tree: topo.Fig1Tree()}, Tran: &TranJob{Tree: topo.Fig1Tree(), DT: 1e-12}},
		{ID: "baddt", Tran: &TranJob{Tree: topo.Fig1Tree(), DT: 0}},
	})
	if res[0].Err != nil {
		t.Fatalf("unreachable level must not fail the job: %v", res[0].Err)
	}
	tc := res[0].Tran.Runs[0].Crossings[0]
	if tc.Reached || tc.T != 0 {
		t.Fatalf("unreachable crossing = %+v, want Reached=false T=0", tc)
	}
	for _, i := range []int{1, 2, 3} {
		if res[i].Err == nil {
			t.Fatalf("job %s: expected error", res[i].ID)
		}
	}
}
