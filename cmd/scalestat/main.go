// Command scalestat diagnoses batch scaling: it runs the same synthetic
// bound-analysis workload across a sweep of worker counts and reports
// where each configuration's time went — per-worker busy/idle/stall/
// lock-wait attribution from the engine's accounting, per-job latency
// quantiles (p50/p95/p99/max from a bounded-memory sketch), plus GC and
// scheduler figures from the runtime/metrics sampler. The output is a
// machine-readable scaling report; the question it answers is "why is
// the throughput curve flat", bucket by bucket, before anyone starts
// optimizing.
//
// Usage:
//
//	scalestat                                # 10k nets, workers 1..GOMAXPROCS
//	scalestat -nets 500 -workers 1,2,4 -o report.json
//	scalestat -share 64                      # jobs cycle over 64 distinct trees
//	scalestat -nets 200 -workers 1,2 -check  # CI smoke: validate own report
//
// The workload mirrors BenchmarkBatch10kNets (random trees of 24..40
// nodes) so reports are comparable with that benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"elmore/internal/batch"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "scalestat:", err)
		os.Exit(1)
	}
}

// report is the top-level scaling report document.
type report struct {
	Report     string  `json:"report"` // "scaling"
	Nets       int     `json:"nets"`
	Distinct   int     `json:"distinct_nets"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Steps      []*step `json:"steps"`
}

// step is one worker-count configuration of the sweep.
type step struct {
	Workers       int              `json:"workers"`
	ElapsedMS     float64          `json:"elapsed_ms"`
	JobsPerSec    float64          `json:"jobs_per_sec"`
	Speedup       float64          `json:"speedup"`    // vs the first step
	Efficiency    float64          `json:"efficiency"` // parallel efficiency: Σbusy/(workers×wall)
	Latency       latencyQuantiles `json:"latency_ms"`
	Attribution   attribution      `json:"attribution"`
	ReorderPeak   int              `json:"reorder_peak"`
	ReorderStalls int64            `json:"reorder_stalls"`
	Runtime       runtimeDelta     `json:"runtime"`
	WorkerTable   []workerRow      `json:"worker_table"`
}

// latencyQuantiles is the per-job latency distribution of one step in
// milliseconds, read from a bounded-memory telemetry.DurationSketch
// (~1% relative error; max is exact). Contention shows up here before
// it shows up in throughput: a flat jobs/sec curve with a growing p99
// means the tail is absorbing the added workers.
type latencyQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// attribution tiles the step's aggregate worker wall time
// (workers × per-worker wall) into fractions. busy excludes lock_wait,
// so the four buckets plus the unaccounted remainder sum to ~1.
type attribution struct {
	Busy      float64 `json:"busy"`      // computing jobs (excluding lock wait)
	LockWait  float64 `json:"lock_wait"` // blocked on shared tree-cache state
	Idle      float64 `json:"idle"`      // waiting for work
	Stall     float64 `json:"stall"`     // reorder-buffer backpressure
	Accounted float64 `json:"accounted"` // busy+lock_wait+idle+stall
}

// runtimeDelta is what the Go runtime did during the step (differences
// of two telemetry.ReadRuntime snapshots).
type runtimeDelta struct {
	GCCycles    int64   `json:"gc_cycles"`
	GCPauseMS   float64 `json:"gc_pause_ms"`
	GCCPUMS     float64 `json:"gc_cpu_ms"`
	MutexWaitMS float64 `json:"mutex_wait_ms"`
}

// workerRow is one worker's accounting within a step.
type workerRow struct {
	Worker     int     `json:"worker"`
	Jobs       int64   `json:"jobs"`
	BusyMS     float64 `json:"busy_ms"`
	IdleMS     float64 `json:"idle_ms"`
	StallMS    float64 `json:"stall_ms"`
	LockWaitMS float64 `json:"lock_wait_ms"`
	CacheHits  int64   `json:"cache_hits"`
	Accounted  float64 `json:"accounted"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scalestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nets := fs.Int("nets", 10000, "number of synthetic nets per step")
	nodes := fs.Int("nodes", 24, "base node count per net (actual: base + i%17, matching BenchmarkBatch10kNets)")
	seed := fs.Int64("seed", 1, "base RNG seed for the synthetic nets")
	share := fs.Int("share", 0, "number of distinct nets; 0 = all distinct, N = jobs cycle over N trees (pre-built trees share no moments: every job computes its own)")
	workersFlag := fs.String("workers", "", "comma-separated worker counts to sweep (default 1,2,4,... up to GOMAXPROCS)")
	out := fs.String("o", "", "write the scaling report JSON to `file` (default stdout)")
	check := fs.Bool("check", false, "validate the report (finite efficiency, accounted fraction) and fail on violation")
	accountedMin := fs.Float64("accounted-min", 0.95, "-check: minimum accounted fraction of worker wall time")
	efficiencyMin := fs.Float64("efficiency-min", 0, "-check: minimum parallel efficiency per step (0 = off; skipped below -min-cpus)")
	speedupMin := fs.Float64("speedup-min", 0, "-check: minimum speedup as a fraction of the step's workers, e.g. 0.5 (0 = off; skipped below -min-cpus)")
	lockwaitMax := fs.Float64("lockwait-max", 1, "-check: maximum lock-wait share of attributed worker time (1 = off; skipped below -min-cpus)")
	minCPUs := fs.Int("min-cpus", 4, "-check: enforce the scaling floors only when NumCPU >= `n`, so single-core runners stay green")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: scalestat [flags] (run scalestat -h)")
	}
	if *nets <= 0 {
		return fmt.Errorf("-nets must be > 0, got %d", *nets)
	}

	sweep, err := parseWorkers(*workersFlag)
	if err != nil {
		return err
	}

	distinct := *nets
	if *share > 0 && *share < distinct {
		distinct = *share
	}
	trees := make([]*rctree.Tree, distinct)
	for i := range trees {
		trees[i] = topo.Random(*seed+int64(i), topo.RandomOptions{N: *nodes + i%17})
	}
	jobs := make([]batch.Job, *nets)
	for i := range jobs {
		jobs[i] = batch.Job{
			ID:  fmt.Sprintf("net%d", i),
			Net: &batch.NetJob{Tree: trees[i%distinct]},
		}
	}

	rep := &report{
		Report:     "scaling",
		Nets:       *nets,
		Distinct:   distinct,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, w := range sweep {
		st, err := runStep(jobs, w)
		if err != nil {
			return err
		}
		rep.Steps = append(rep.Steps, st)
		fmt.Fprintf(stderr, "scalestat: workers=%d elapsed=%.1fms efficiency=%.2f accounted=%.2f\n",
			w, st.ElapsedMS, st.Efficiency, st.Attribution.Accounted)
	}
	if base := rep.Steps[0].ElapsedMS; base > 0 {
		for _, st := range rep.Steps {
			if st.ElapsedMS > 0 {
				st.Speedup = round3(base / st.ElapsedMS)
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
	} else {
		stdout.Write(buf)
	}
	if *check {
		floors := checkFloors{
			AccountedMin:  *accountedMin,
			EfficiencyMin: *efficiencyMin,
			SpeedupMin:    *speedupMin,
			LockWaitMax:   *lockwaitMax,
		}
		if runtime.NumCPU() < *minCPUs {
			// The scaling floors measure parallel hardware; on a box
			// with fewer cores than -min-cpus they would fail for
			// reasons the code cannot fix, so they are skipped — the
			// structural checks (finiteness, accounted fraction) still
			// run everywhere.
			if floors.EfficiencyMin > 0 || floors.SpeedupMin > 0 || floors.LockWaitMax < 1 {
				fmt.Fprintf(stderr, "scalestat: NumCPU=%d < %d: scaling floors skipped\n", runtime.NumCPU(), *minCPUs)
			}
			floors.EfficiencyMin, floors.SpeedupMin, floors.LockWaitMax = 0, 0, 1
		}
		if err := validate(rep, floors); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "scalestat: check ok")
	}
	return nil
}

// checkFloors bundles the -check thresholds. AccountedMin always
// applies; the other three are the scaling floors gated on -min-cpus.
type checkFloors struct {
	AccountedMin  float64
	EfficiencyMin float64 // 0 disables
	SpeedupMin    float64 // fraction of workers; 0 disables
	LockWaitMax   float64 // share of attributed time; >= 1 disables
}

// runStep executes the workload once at the given worker count, with a
// fresh registry so steps do not contaminate each other, and
// runtime snapshots bracketing the run.
func runStep(jobs []batch.Job, workers int) (*step, error) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	var ps *batch.PoolStats
	eng := &batch.Engine{
		Workers: workers,
		OnStats: func(rs batch.PoolStats) { ps = &rs },
	}
	runtime.GC() // settle the heap so GC deltas belong to this step
	before := telemetry.ReadRuntime()
	start := time.Now()
	results := eng.Run(context.Background(), jobs)
	elapsed := time.Since(start)
	after := telemetry.ReadRuntime()

	sk := telemetry.NewDurationSketch()
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("workers=%d: job %s failed: %w", workers, r.ID, r.Err)
		}
		sk.Observe(r.Elapsed)
	}
	if ps == nil {
		return nil, fmt.Errorf("workers=%d: engine delivered no PoolStats", workers)
	}

	st := &step{
		Workers:       workers,
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		Efficiency:    round3(ps.Efficiency()),
		ReorderPeak:   ps.ReorderPeak,
		ReorderStalls: ps.ReorderStalls,
		Runtime: runtimeDelta{
			GCCycles:    after.GCCycles - before.GCCycles,
			GCPauseMS:   round3((after.GCPauseTotalSec - before.GCPauseTotalSec) * 1e3),
			GCCPUMS:     round3((after.GCCPUSec - before.GCCPUSec) * 1e3),
			MutexWaitMS: round3((after.MutexWaitSec - before.MutexWaitSec) * 1e3),
		},
	}
	if elapsed > 0 {
		st.JobsPerSec = round3(float64(len(jobs)) / elapsed.Seconds())
	}
	const ms = float64(time.Millisecond)
	st.Latency = latencyQuantiles{
		P50: round3(float64(sk.Quantile(0.50)) / ms),
		P95: round3(float64(sk.Quantile(0.95)) / ms),
		P99: round3(float64(sk.Quantile(0.99)) / ms),
		Max: round3(float64(sk.Max()) / ms),
	}
	var busy, idle, stall, lock, wall int64
	for _, ws := range ps.Worker {
		busy += ws.BusyNS
		idle += ws.IdleNS
		stall += ws.StallNS
		lock += ws.LockWaitNS
		wall += ws.WallNS
		st.WorkerTable = append(st.WorkerTable, workerRow{
			Worker:     ws.Worker,
			Jobs:       ws.Jobs,
			BusyMS:     round3(float64(ws.BusyNS) / ms),
			IdleMS:     round3(float64(ws.IdleNS) / ms),
			StallMS:    round3(float64(ws.StallNS) / ms),
			LockWaitMS: round3(float64(ws.LockWaitNS) / ms),
			CacheHits:  ws.CacheHits,
			Accounted:  round3(ws.Accounted()),
		})
	}
	if wall > 0 {
		fw := float64(wall)
		st.Attribution = attribution{
			Busy:      round3(float64(busy-lock) / fw),
			LockWait:  round3(float64(lock) / fw),
			Idle:      round3(float64(idle) / fw),
			Stall:     round3(float64(stall) / fw),
			Accounted: round3(float64(busy+idle+stall) / fw),
		}
	}
	return st, nil
}

// parseWorkers turns the -workers list into a sweep; empty means
// 1, 2, 4, ... doubling up to GOMAXPROCS (always including it).
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		max := runtime.GOMAXPROCS(0)
		var sweep []int
		for w := 1; w < max; w *= 2 {
			sweep = append(sweep, w)
		}
		return append(sweep, max), nil
	}
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-workers: bad count %q", part)
		}
		sweep = append(sweep, w)
	}
	return sweep, nil
}

// validate is the -check mode: every efficiency/attribution figure must
// be finite, the attribution must explain at least AccountedMin of the
// worker wall time, and — when the scaling floors are armed — each
// step must hit the parallel-efficiency and per-worker-speedup floors
// and stay under the lock-wait ceiling.
func validate(rep *report, floors checkFloors) error {
	if len(rep.Steps) == 0 {
		return fmt.Errorf("check: report has no steps")
	}
	for _, st := range rep.Steps {
		for name, v := range map[string]float64{
			"efficiency": st.Efficiency,
			"speedup":    st.Speedup,
			"busy":       st.Attribution.Busy,
			"lock_wait":  st.Attribution.LockWait,
			"idle":       st.Attribution.Idle,
			"stall":      st.Attribution.Stall,
			"accounted":  st.Attribution.Accounted,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("check: workers=%d: %s is %v", st.Workers, name, v)
			}
		}
		if l := st.Latency; !(0 <= l.P50 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
			return fmt.Errorf("check: workers=%d: latency quantiles unordered: %+v", st.Workers, l)
		}
		if st.Efficiency <= 0 || st.Efficiency > 1.01 {
			return fmt.Errorf("check: workers=%d: efficiency %v outside (0, 1]", st.Workers, st.Efficiency)
		}
		if st.Attribution.Accounted < floors.AccountedMin {
			return fmt.Errorf("check: workers=%d: accounted fraction %.3f < %.3f",
				st.Workers, st.Attribution.Accounted, floors.AccountedMin)
		}
		if floors.EfficiencyMin > 0 && st.Efficiency < floors.EfficiencyMin {
			return fmt.Errorf("check: workers=%d: parallel efficiency %.3f < floor %.3f",
				st.Workers, st.Efficiency, floors.EfficiencyMin)
		}
		if floors.SpeedupMin > 0 && st.Speedup < floors.SpeedupMin*float64(st.Workers) {
			return fmt.Errorf("check: workers=%d: speedup %.3f < %.2f x workers = %.3f",
				st.Workers, st.Speedup, floors.SpeedupMin, floors.SpeedupMin*float64(st.Workers))
		}
		if floors.LockWaitMax < 1 && st.Attribution.Accounted > 0 {
			share := st.Attribution.LockWait / st.Attribution.Accounted
			if share > floors.LockWaitMax {
				return fmt.Errorf("check: workers=%d: lock-wait share %.3f of attributed time > ceiling %.3f",
					st.Workers, share, floors.LockWaitMax)
			}
		}
	}
	return nil
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }
