package batch

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"elmore/internal/core"
	"elmore/internal/faultinject"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// installFaults swaps in a seeded injector and an isolated telemetry
// registry for the duration of one chaos test.
func installFaults(t *testing.T, seed int64, rules ...faultinject.Rule) {
	t.Helper()
	prevReg := telemetry.SetDefault(telemetry.NewRegistry())
	prevInj := faultinject.SetDefault(faultinject.New(seed, rules...))
	t.Cleanup(func() {
		faultinject.SetDefault(prevInj)
		telemetry.SetDefault(prevReg)
	})
}

// TestChaosBatchUnderFaults drives a large mixed batch — half net jobs,
// half transient sweeps — through randomized-but-deterministic faults
// injected into the simulator step loop, the plan factorization, and
// the job dispatch path, and asserts the engine's invariants: no job is
// lost or duplicated, results stream in order, every Result is a value
// or a typed error (never both, never neither), and every transient
// sweep whose simulation exhausted its retries degrades to the paper's
// closed-form bound interval instead of erroring.
func TestChaosBatchUnderFaults(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 500
	}
	installFaults(t, 7,
		faultinject.Rule{Point: "sim.factor", Kind: faultinject.KindError, Prob: 0.02},
		faultinject.Rule{Point: "sim.step", Kind: faultinject.KindError, Prob: 0.002},
		faultinject.Rule{Point: "sim.state", Kind: faultinject.KindNaN, Every: 2000},
		faultinject.Rule{Point: "batch.dispatch", Kind: faultinject.KindError, Prob: 0.01},
		faultinject.Rule{Point: "batch.dispatch", Kind: faultinject.KindPanic, Every: 601},
	)

	// A small fleet of distinct circuits spreads the breaker keys and
	// shares plans/moments through the cache.
	type circuit struct {
		tree *rctree.Tree
		want *core.Analysis
		dt   float64
		tEnd float64
	}
	var fleet []circuit
	for k := 0; k < 8; k++ {
		tree := topo.Random(int64(100+k), topo.RandomOptions{N: 4 + k})
		want, err := core.Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		td := 0.0
		for _, b := range want.Bounds {
			if b.Elmore > td {
				td = b.Elmore
			}
		}
		fleet = append(fleet, circuit{tree: tree, want: want, dt: td / 100, tEnd: 3 * td})
	}

	jobs := make([]Job, n)
	for i := range jobs {
		c := fleet[i%len(fleet)]
		if i%2 == 0 {
			jobs[i] = Job{ID: fmt.Sprintf("net%d", i), Net: &NetJob{Tree: c.tree}}
		} else {
			jobs[i] = Job{ID: fmt.Sprintf("tran%d", i), Tran: &TranJob{Tree: c.tree, DT: c.dt, TEnd: c.tEnd}}
		}
	}

	e := &Engine{
		Workers: 8,
		Cache:   NewCache(),
		Retry: &resilience.Policy{
			MaxAttempts: 4,
			BaseDelay:   50 * time.Microsecond,
			MaxDelay:    time.Millisecond,
			RetryPanics: true,
		},
		Breaker: &resilience.Breaker{Threshold: 25, Cooldown: time.Millisecond},
	}
	var results []Result
	e.RunFunc(context.Background(), jobs, func(r Result) { results = append(results, r) })

	if len(results) != n {
		t.Fatalf("emitted %d results for %d jobs (lost or duplicated work)", len(results), n)
	}
	degraded, failed, panicky := 0, 0, 0
	for i, r := range results {
		if r.Index != i || r.ID != jobs[i].ID {
			t.Fatalf("result %d is job %d (%s): order broken", i, r.Index, r.ID)
		}
		payloads := 0
		if r.Net != nil {
			payloads++
		}
		if r.Path != nil {
			payloads++
		}
		if r.Tran != nil {
			payloads++
		}
		if r.Err != nil {
			failed++
			if payloads != 0 {
				t.Errorf("job %s failed but carries %d payloads", r.ID, payloads)
			}
		} else if payloads != 1 {
			t.Errorf("job %s succeeded with %d payloads, want exactly 1", r.ID, payloads)
		}
		if r.Attempts < 1 {
			t.Errorf("job %s reports %d attempts", r.ID, r.Attempts)
		}
		isTran := i%2 == 1
		if isTran && r.Err != nil && resilience.Degradable(r.Err) {
			t.Errorf("job %s: retry-exhausted sim failure must degrade, got error %v", r.ID, r.Err)
		}
		if r.Degraded != "" {
			degraded++
			c := fleet[i%len(fleet)]
			if !isTran {
				t.Errorf("net job %s degraded; only transient sweeps may", r.ID)
			}
			if r.Degraded != DegradedElmoreBound || r.DegradedFrom == "" {
				t.Errorf("job %s: degraded=%q from=%q", r.ID, r.Degraded, r.DegradedFrom)
			}
			if r.Net == nil || r.Tran != nil {
				t.Errorf("job %s: degraded result must carry the bound interval in Net", r.ID)
				continue
			}
			if len(r.Net.Sinks) != c.tree.N() {
				t.Errorf("job %s: degraded result has %d sinks for %d nodes", r.ID, len(r.Net.Sinks), c.tree.N())
				continue
			}
			for k, s := range r.Net.Sinks {
				// The paper's interval: 0 <= max(mu-sigma, 0) <= T_D,
				// bit-identical to a direct analysis.
				if s.Bounds != c.want.Bounds[k] {
					t.Errorf("job %s sink %s: degraded bounds %+v differ from direct analysis %+v",
						r.ID, s.Node, s.Bounds, c.want.Bounds[k])
				}
				if s.Bounds.Lower < 0 || s.Bounds.Lower > s.Bounds.Elmore {
					t.Errorf("job %s sink %s: interval [%g, %g] violates 0 <= lower <= T_D",
						r.ID, s.Node, s.Bounds.Lower, s.Bounds.Elmore)
				}
			}
		}
		if r.Attempts > 1 {
			panicky++ // at least one retry happened somewhere
		}
	}

	fired := telemetry.C("faultinject.fired").Value()
	retries := telemetry.C("resilience.retries").Value()
	if got := telemetry.C("batch.jobs").Value(); got != int64(n) {
		t.Errorf("batch.jobs counter = %d, want %d", got, n)
	}
	if got := telemetry.C("resilience.degraded").Value(); got != int64(degraded) {
		t.Errorf("resilience.degraded counter = %d, observed %d degraded results", got, degraded)
	}
	if qd := telemetry.G("batch.queue_depth").Value(); qd != 0 {
		t.Errorf("queue depth gauge ends at %g, want 0", qd)
	}
	if fired == 0 {
		t.Errorf("no faults fired; the chaos run tested nothing")
	}
	if !testing.Short() {
		if retries == 0 {
			t.Errorf("no retries under %d injected faults", fired)
		}
		if degraded == 0 {
			t.Errorf("no degraded results in a %d-job chaos run", n)
		}
	}
	t.Logf("chaos: %d jobs, %d faults fired, %d retries, %d degraded, %d failed, %d multi-attempt",
		n, fired, retries, degraded, failed, panicky)
}

// TestChaosBreakerDegradesCursedTree pins every simulation attempt on
// one tree to failure: the circuit breaker must open after Threshold
// consecutive failures, later jobs must be rejected without burning
// attempts, and every job — pre- and post-open — must still answer with
// the degraded bound interval rather than an error.
func TestChaosBreakerDegradesCursedTree(t *testing.T) {
	installFaults(t, 1,
		faultinject.Rule{Point: "sim.step", Kind: faultinject.KindError, Every: 1},
	)
	tree := topo.Random(3, topo.RandomOptions{N: 6})
	want, err := core.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	td := want.Bounds[len(want.Bounds)-1].Elmore
	const n = 60
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("t%d", i), Tran: &TranJob{Tree: tree, DT: td / 50, TEnd: 2 * td}}
	}
	e := &Engine{
		Workers: 4,
		Retry:   &resilience.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Microsecond},
		Breaker: &resilience.Breaker{Threshold: 8, Cooldown: time.Hour},
	}
	res := e.Run(context.Background(), jobs)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s errored instead of degrading: %v", r.ID, r.Err)
		}
		if r.Degraded != DegradedElmoreBound || r.Net == nil {
			t.Fatalf("job %s: degraded=%q net=%v", r.ID, r.Degraded, r.Net != nil)
		}
	}
	if opens := telemetry.C("resilience.breaker_opens").Value(); opens == 0 {
		t.Errorf("breaker never opened for an always-failing tree")
	}
	if rejects := telemetry.C("resilience.breaker_rejects").Value(); rejects == 0 {
		t.Errorf("open breaker rejected no attempts")
	}
}

// TestChaosMomentFaultsRecovered injects faults into the moment
// computation under a shared cache: transient failures must be retried
// successfully (which requires the cache to evict transiently failed
// entries instead of pinning the error), and once the injector is gone
// the same cache must serve every job cleanly.
func TestChaosMomentFaultsRecovered(t *testing.T) {
	installFaults(t, 11,
		faultinject.Rule{Point: "moments.compute", Kind: faultinject.KindError, Prob: 0.2},
	)
	tree := chainNet(t, 9)
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("m%d", i), tree)
	}
	cache := NewCache()
	e := &Engine{
		Workers: 4,
		Cache:   cache,
		Retry:   &resilience.Policy{MaxAttempts: 6, BaseDelay: 10 * time.Microsecond},
	}
	res := e.Run(context.Background(), jobs)
	ok := 0
	for _, r := range res {
		switch {
		case r.Err == nil:
			ok++
		case resilience.Classify(r.Err) == resilience.Permanent:
			t.Errorf("job %s: injected fault surfaced as permanent: %v", r.ID, r.Err)
		}
	}
	if ok == 0 {
		t.Fatalf("no job survived a 20%% moment-fault rate with 6 attempts; cache is pinning errors")
	}
	// With the injector gone the cache must be clean: no stale error
	// entry may outlive its transient cause.
	faultinject.SetDefault(nil)
	for _, r := range e.Run(context.Background(), jobs[:20]) {
		if r.Err != nil {
			t.Errorf("post-chaos job %s still fails: %v", r.ID, r.Err)
		}
	}
}

// TestRunFuncStopsEmittingAfterCancel cancels the batch from inside
// emit and asserts the contract both ways: no emission happens after
// the cancellation is observable, and the run leaks no goroutines.
func TestRunFuncStopsEmittingAfterCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	tree := chainNet(t, 5)
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("j%d", i), tree)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted []int
	e := &Engine{Workers: 4, Timeout: time.Minute}
	e.RunFunc(ctx, jobs, func(r Result) {
		if ctx.Err() != nil {
			t.Errorf("emit called for job %d after cancellation", r.Index)
		}
		emitted = append(emitted, r.Index)
		if len(emitted) == 5 {
			cancel()
		}
	})
	if len(emitted) != 5 {
		t.Errorf("emitted %d results, want exactly the 5 before cancellation", len(emitted))
	}
	for i, idx := range emitted {
		if idx != i {
			t.Errorf("emission %d carried job %d; order broken", i, idx)
		}
	}
	// Workers, dispatcher, and closer must all wind down; per-attempt
	// timeout contexts must be released.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines grew from %d to %d after RunFunc returned\n%s",
			before, got, buf[:runtime.Stack(buf, true)])
	}
}
