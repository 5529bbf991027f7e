package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func TestOnStatsAccountsWorkerTime(t *testing.T) {
	trees := make([]*rctree.Tree, 8)
	for i := range trees {
		trees[i] = topo.Random(int64(i)+1, topo.RandomOptions{N: 20 + i})
	}
	var jobs []Job
	for i := 0; i < 64; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), trees[i%8]))
	}
	var got *PoolStats
	e := &Engine{
		Workers: 4,
		Trees:   heldTrees(t, trees...),
		OnStats: func(rs PoolStats) { got = &rs },
	}
	e.Run(context.Background(), jobs)

	if got == nil {
		t.Fatal("OnStats never called")
	}
	if got.Jobs != len(jobs) || got.Workers != 4 {
		t.Fatalf("PoolStats jobs/workers = %d/%d, want %d/4", got.Jobs, got.Workers, len(jobs))
	}
	if len(got.Worker) != 4 {
		t.Fatalf("got %d worker entries, want 4", len(got.Worker))
	}
	var jobsSum, hits, misses int64
	for i, ws := range got.Worker {
		if ws.Worker != i {
			t.Errorf("worker %d has index %d", i, ws.Worker)
		}
		jobsSum += ws.Jobs
		hits += ws.CacheHits
		misses += ws.CacheMisses
		if ws.WallNS <= 0 {
			t.Errorf("worker %d: WallNS = %d, want > 0", i, ws.WallNS)
		}
		for name, v := range map[string]int64{
			"BusyNS": ws.BusyNS, "IdleNS": ws.IdleNS,
			"StallNS": ws.StallNS, "LockWaitNS": ws.LockWaitNS,
		} {
			if v < 0 {
				t.Errorf("worker %d: %s = %d, want >= 0", i, name, v)
			}
		}
		// The acceptance bar: busy+idle+stall explains >= 95% of each
		// worker's wall time (the gap is loop overhead).
		if acc := ws.Accounted(); acc < 0.95 || acc > 1.01 {
			t.Errorf("worker %d: accounted fraction %.3f outside [0.95, 1.01] (busy=%d idle=%d stall=%d wall=%d)",
				i, acc, ws.BusyNS, ws.IdleNS, ws.StallNS, ws.WallNS)
		}
		if ws.LockWaitNS > ws.BusyNS {
			t.Errorf("worker %d: lock wait %d exceeds busy %d (must be a sub-bucket)", i, ws.LockWaitNS, ws.BusyNS)
		}
	}
	if jobsSum != int64(len(jobs)) {
		t.Errorf("per-worker jobs sum to %d, want %d", jobsSum, len(jobs))
	}
	// 8 distinct trees across 64 jobs: exactly 8 misses, rest hits.
	if misses != 8 || hits != int64(len(jobs))-8 {
		t.Errorf("per-worker cache hits/misses = %d/%d, want %d/8", hits, misses, len(jobs)-8)
	}
	if eff := got.Efficiency(); eff <= 0 || eff > 1.01 {
		t.Errorf("efficiency = %.3f, want in (0, 1]", eff)
	}
	if got.ReorderPeak < 1 {
		t.Errorf("reorder peak = %d, want >= 1 (every result parks at least momentarily)", got.ReorderPeak)
	}
}

func TestSummaryHasWorkerTable(t *testing.T) {
	var jobs []Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i),
			topo.Random(int64(i)+1, topo.RandomOptions{N: 12})))
	}
	var sum strings.Builder
	e := &Engine{
		Workers: 2,
		Report:  &Reporter{Summary: &sum},
	}
	e.Run(context.Background(), jobs)

	var rec struct {
		Record     string  `json:"record"`
		Efficiency float64 `json:"parallel_efficiency"`
		Workers    []struct {
			Worker      int     `json:"worker"`
			Jobs        int64   `json:"jobs"`
			BusyMS      float64 `json:"busy_ms"`
			Utilization float64 `json:"utilization"`
			Accounted   float64 `json:"accounted"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(sum.String())), &rec); err != nil {
		t.Fatalf("summary not parseable: %v\n%s", err, sum.String())
	}
	if rec.Record != "batch_summary" {
		t.Fatalf("record = %q, want batch_summary", rec.Record)
	}
	if len(rec.Workers) != 2 {
		t.Fatalf("summary worker table has %d rows, want 2:\n%s", len(rec.Workers), sum.String())
	}
	if rec.Efficiency <= 0 {
		t.Errorf("parallel_efficiency = %v, want > 0", rec.Efficiency)
	}
	var jobsSum int64
	for _, w := range rec.Workers {
		jobsSum += w.Jobs
		if w.Accounted < 0.95 {
			t.Errorf("worker %d accounted %.3f < 0.95 in summary", w.Worker, w.Accounted)
		}
	}
	if jobsSum != int64(len(jobs)) {
		t.Errorf("summary worker jobs sum to %d, want %d", jobsSum, len(jobs))
	}
}

func TestPoolStatsPublishGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	rs := PoolStats{
		Jobs:    10,
		Workers: 2,
		WallNS:  1e9,
		Worker: []WorkerStats{
			{Worker: 0, Jobs: 6, BusyNS: 9e8, IdleNS: 1e8, WallNS: 1e9},
			{Worker: 1, Jobs: 4, BusyNS: 5e8, IdleNS: 5e8, WallNS: 1e9},
		},
		ReorderPeak: 3,
	}
	rs.publish(reg)
	if got := reg.Gauge("batch.parallel_efficiency").Value(); got != 0.7 {
		t.Errorf("batch.parallel_efficiency = %v, want 0.7", got)
	}
	if got := reg.Gauge("batch.worker0.busy_seconds").Value(); got != 0.9 {
		t.Errorf("batch.worker0.busy_seconds = %v, want 0.9", got)
	}
	if got := reg.Gauge("batch.worker1.utilization").Value(); got != 0.5 {
		t.Errorf("batch.worker1.utilization = %v, want 0.5", got)
	}
	if got := reg.Gauge("batch.reorder_peak").Value(); got != 3 {
		t.Errorf("batch.reorder_peak = %v, want 3", got)
	}
	// A second run's publish overwrites, never accumulates.
	rs.Worker[0].BusyNS = 3e8
	rs.publish(reg)
	if got := reg.Gauge("batch.worker0.busy_seconds").Value(); got != 0.3 {
		t.Errorf("after republish batch.worker0.busy_seconds = %v, want 0.3 (Set semantics)", got)
	}
	rs.publish(nil) // nil registry must not panic
}

// A worker that finds another worker computing the same entry waits
// for it, and the wait is charged to its stats, through the context,
// as lock wait. Without worker stats in the context nothing is charged.
func TestCacheAttributesLockWaitViaContext(t *testing.T) {
	tree := topo.Chain(16, 100, 1e-13)
	e := &Engine{Trees: heldTrees(t, tree)}
	en := heldEntry(t, e.Trees, tree)
	computing, release := make(chan struct{}), make(chan struct{})
	go en.derive(nil, derivedKey{}, func() (any, error) {
		close(computing)
		<-release
		return moments.Compute(tree)
	})
	<-computing

	ws := &WorkerStats{}
	ctx := withWorkerStats(context.Background(), ws)
	const hold = 50 * time.Millisecond
	time.AfterFunc(hold, func() { close(release) })
	if _, hit, err := e.momentSet(ctx, tree); err != nil || !hit {
		t.Fatalf("lookup during another worker's compute: hit=%v err=%v, want a hit", hit, err)
	}
	if ws.CacheHits != 1 || ws.CacheMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", ws.CacheHits, ws.CacheMisses)
	}
	if ws.LockWaitNS < (hold / 2).Nanoseconds() {
		t.Errorf("LockWaitNS = %d after waiting on a %v compute", ws.LockWaitNS, hold)
	}
	if _, hit, err := e.momentSet(context.Background(), tree); err != nil || !hit {
		t.Fatalf("plain-context lookup: hit=%v err=%v, want hit", hit, err)
	}
	if ws.CacheHits != 1 {
		t.Fatalf("plain-context lookup leaked into worker stats: hits = %d", ws.CacheHits)
	}
}

// The per-worker gauge names are scrape-config surface: their
// Prometheus spellings must stay fixed, and the exposition must parse
// as well-formed gauge families.
func TestWorkerGaugesPromExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	rs := PoolStats{
		Jobs:    8,
		Workers: 2,
		WallNS:  1e9,
		Worker: []WorkerStats{
			{Worker: 0, Jobs: 5, BusyNS: 8e8, IdleNS: 2e8, LockWaitNS: 1e8, WallNS: 1e9},
			{Worker: 1, Jobs: 3, BusyNS: 4e8, IdleNS: 6e8, StallNS: 1e7, WallNS: 1e9},
		},
		ReorderPeak: 2,
	}
	rs.publish(reg)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for dotted, want := range map[string]string{
		"batch.workers":                   "batch_workers",
		"batch.parallel_efficiency":       "batch_parallel_efficiency",
		"batch.reorder_peak":              "batch_reorder_peak",
		"batch.worker0.jobs":              "batch_worker0_jobs",
		"batch.worker0.busy_seconds":      "batch_worker0_busy_seconds",
		"batch.worker0.idle_seconds":      "batch_worker0_idle_seconds",
		"batch.worker1.stall_seconds":     "batch_worker1_stall_seconds",
		"batch.worker0.lock_wait_seconds": "batch_worker0_lock_wait_seconds",
		"batch.worker1.utilization":       "batch_worker1_utilization",
	} {
		if got := telemetry.PromName(dotted); got != want {
			t.Errorf("PromName(%q) = %q, want %q", dotted, got, want)
		}
		if !strings.Contains(out, "# TYPE "+want+" gauge\n") {
			t.Errorf("exposition missing TYPE line for %s:\n%s", want, out)
		}
	}
	for _, wantLine := range []string{
		"batch_workers 2\n",
		"batch_worker0_busy_seconds 0.8\n",
		"batch_worker1_jobs 3\n",
		"batch_worker0_lock_wait_seconds 0.1\n",
		"batch_reorder_peak 2\n",
	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("exposition missing sample %q:\n%s", strings.TrimSpace(wantLine), out)
		}
	}
}

// A narrower run after a wider one must zero the stale workers'
// gauges: a 2-worker run following a 4-worker run must not leave
// worker 2/3 time on the scrape page.
func TestWorkerGaugesResetBetweenRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	wide := PoolStats{Jobs: 8, Workers: 4, WallNS: 1e9}
	for w := 0; w < 4; w++ {
		wide.Worker = append(wide.Worker, WorkerStats{
			Worker: w, Jobs: 2, BusyNS: 5e8, IdleNS: 5e8, WallNS: 1e9,
		})
	}
	wide.publish(reg)
	if got := reg.Gauge("batch.worker3.busy_seconds").Value(); got != 0.5 {
		t.Fatalf("wide run: worker3 busy = %v, want 0.5", got)
	}

	narrow := PoolStats{
		Jobs: 8, Workers: 2, WallNS: 1e9,
		Worker: []WorkerStats{
			{Worker: 0, Jobs: 4, BusyNS: 9e8, WallNS: 1e9},
			{Worker: 1, Jobs: 4, BusyNS: 9e8, WallNS: 1e9},
		},
	}
	narrow.publish(reg)
	if got := reg.Gauge("batch.workers").Value(); got != 2 {
		t.Errorf("batch.workers = %v, want 2", got)
	}
	for w := 2; w < 4; w++ {
		for _, leaf := range workerGaugeNames {
			name := fmt.Sprintf("batch.worker%d.%s", w, leaf)
			if got := reg.Gauge(name).Value(); got != 0 {
				t.Errorf("stale gauge %s = %v after narrower run, want 0", name, got)
			}
		}
	}
	if got := reg.Gauge("batch.worker0.busy_seconds").Value(); got != 0.9 {
		t.Errorf("worker0 busy = %v, want 0.9", got)
	}
}
