// Package batch evaluates many independent bound-analysis jobs
// concurrently on a bounded worker pool. The paper's closed-form bounds
// are embarrassingly parallel across nets and sinks, and library
// characterization flows sweep thousands of net/slew/corner
// combinations per run; this package is the layer that exploits that.
//
// A Job is either a net analysis (core.BoundsAt at the requested sinks,
// plus InputBounds for a non-step input), an STA path walk
// (sta.AnalyzePathMoments), or a transient characterization sweep
// (sim.Plan). The Engine guarantees:
//
//   - Bounded concurrency: at most Workers jobs run at once (default
//     GOMAXPROCS).
//   - Per-attempt timeout and cancellation: each attempt runs under a
//     derived context; expiry or batch-context cancellation is observed
//     at sink/stage boundaries inside the engines.
//   - Fail-soft error policy: one bad netlist (or a panicking job)
//     yields a per-job error Result, never a dead batch. Worker panics
//     are recovered and isolated to the offending job.
//   - Deterministic ordering: Run returns results in job order, and
//     RunFunc emits them in job order as soon as each prefix completes,
//     regardless of which worker finished first. Once the batch context
//     is cancelled RunFunc stops emitting; Run reports the unemitted
//     jobs with the context's error.
//   - Shared moment reuse: an optional immutable Cache keyed by tree
//     fingerprint lets repeated nets reuse one moments.Set.
//   - Resilience: an optional retry Policy re-runs transiently failing
//     attempts with backoff, a Breaker cuts off trees that keep
//     failing, and — because the paper guarantees the Elmore delay
//     T_D = m1 bounds the 50% delay from above and max(mu-sigma, 0)
//     from below — a transient sweep whose simulation keeps failing
//     degrades gracefully to those moment bounds instead of erroring
//     (Result.Degraded "elmore-bound").
//
// The engine is instrumented with the telemetry package: a
// batch.queue_depth gauge, batch.jobs / batch.job_errors /
// batch.cache_hits / batch.cache_misses / resilience.retries /
// resilience.degraded counters, and one batch.job span per job nested
// under the batch.run span.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elmore/internal/core"
	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/signal"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
)

// NetJob asks for the paper's delay bounds on one net. The tree comes
// either pre-built (Tree) or from a loader that runs inside the worker
// (Load) so that parse failures stay per-job.
type NetJob struct {
	Tree  *rctree.Tree                 // pre-built net; takes precedence over Load
	Load  func() (*rctree.Tree, error) // lazy loader, called in-worker
	Sinks []string                     // node names to report; empty means every node
	Input signal.Signal                // excitation; nil means the ideal step
}

// PathJob asks for an STA path walk. Like NetJob, the path comes
// pre-built or from an in-worker loader.
type PathJob struct {
	Path *sta.Path
	Load func() (*sta.Path, error)
}

// Job is one unit of batch work: exactly one of Net, Path or Tran must
// be set. A Job with Err set is dead on arrival — the engine reports it
// as a per-job error record, which is how spec-level failures (bad rise
// time, unknown cell) flow through the fail-soft policy.
type Job struct {
	ID   string // caller-chosen label, echoed in the Result
	Err  error  // pre-failed job (e.g. an invalid spec)
	Net  *NetJob
	Path *PathJob
	Tran *TranJob

	// Trace, when valid, is the request lineage this job continues — a
	// coordinator handing spec ranges to worker processes stamps it via
	// the spec's trace_id field. The zero value (the normal case) makes
	// the engine mint a fresh trace when the job is picked up.
	Trace telemetry.TraceContext
}

// SinkBounds carries one reported node of a net job.
type SinkBounds struct {
	Node   string
	Bounds core.Bounds       // step-input bounds at the node
	Input  *core.InputBounds // generalized-input bounds; nil for step inputs
}

// NetResult is the outcome of one net job.
type NetResult struct {
	// Deprecated: the engine evaluates bounds at the requested sinks
	// only and leaves Analysis nil. The field stays while the benchmark
	// replay fills it.
	Analysis *core.Analysis
	Sinks    []SinkBounds
}

// DegradedElmoreBound is the Result.Degraded marker for a transient
// job whose simulation kept failing and was answered with the paper's
// closed-form interval [max(mu-sigma, 0), T_D] instead.
const DegradedElmoreBound = "elmore-bound"

// Result is the outcome of one job. Exactly one of Net/Path/Tran is
// non-nil on success; Err is set on failure (and all payloads are nil).
// A degraded result is a success with Degraded set: the simulation
// failed, but the paper-guaranteed bound interval in Net stands in for
// it (DegradedFrom preserves the suppressed failure).
type Result struct {
	Index        int    // position in the submitted job slice
	ID           string // echoed Job.ID
	Err          error
	CacheHit     bool // a shared moment set or simulation plan was reused
	Elapsed      time.Duration
	Attempts     int                    // attempts executed (0 only for never-started jobs)
	Degraded     string                 // DegradedElmoreBound when Net stands in for a failed sim
	DegradedFrom string                 // the failure Degraded suppressed
	Trace        telemetry.TraceContext // lineage minted (or inherited) for this job
	Net          *NetResult
	Path         *sta.PathResult
	Tran         *TranResult
}

// Engine runs batches. The zero value is usable: GOMAXPROCS workers, no
// timeout, no cache, single attempts, no degradation suppression. An
// Engine is stateless across Run calls and safe for concurrent use.
type Engine struct {
	Workers int           // max concurrent jobs; <= 0 means runtime.GOMAXPROCS(0)
	Timeout time.Duration // per-attempt limit; <= 0 means none
	Cache   *Cache        // shared moment-set cache; nil disables reuse
	Report  *Reporter     // run reporting (progress, slow log, summary); nil disables

	// Retry re-runs transiently failing attempts; nil means one attempt
	// per job.
	Retry *resilience.Policy
	// Breaker cuts off circuits (keyed by tree fingerprint) that keep
	// failing transiently; nil disables. Jobs rejected by an open
	// breaker degrade like any other transient failure.
	Breaker *resilience.Breaker
	// NoDegrade turns off graceful degradation: transient jobs whose
	// simulation exhausts its attempts report the error instead of the
	// moment-bound interval.
	NoDegrade bool

	// OnStart, when non-nil, observes each job once a worker has taken
	// it, with the trace the job runs under. It is called from the one
	// goroutine that hands jobs to workers (never concurrently with
	// itself), and it may run after the job has finished; the
	// crash-safe journal uses it to record in-flight jobs with their
	// lineage.
	OnStart func(index int, id string, trace telemetry.TraceContext)

	// OnStats, when non-nil, receives the run's per-worker accounting
	// (PoolStats) once every worker has exited, on the RunFunc goroutine.
	// cmd/scalestat uses it to build scaling reports.
	OnStats func(PoolStats)
}

// Run evaluates all jobs and returns one Result per job, in job order.
// It never fails as a whole: cancellation of ctx marks the remaining
// jobs with ctx's error and returns.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	seen := make([]bool, len(jobs))
	e.RunFunc(ctx, jobs, func(r Result) {
		results[r.Index] = r
		seen[r.Index] = true
	})
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !seen[i] {
				results[i] = Result{Index: i, ID: jobs[i].ID, Err: err}
			}
		}
	}
	return results
}

// RunFunc evaluates all jobs, calling emit exactly once per job in job
// order (emit runs on the calling goroutine, so it needs no locking).
// Results stream: result i is emitted as soon as jobs 0..i have all
// finished, so a slow job delays — but never reorders — the output.
//
// Cancellation contract: once ctx's cancellation is observed, emit is
// never called again — jobs not yet emitted are simply dropped (Run
// reports them with ctx's error; a journal re-queues them on resume).
// Workers still drain to completion, so RunFunc returns only after
// every in-flight job has finished.
func (e *Engine) RunFunc(ctx context.Context, jobs []Job, emit func(Result)) {
	e.runFunc(ctx, jobs, func(r Result) bool { emit(r); return false })
}

// runFunc is RunFunc with an emit that reports whether it wrote a
// result without an error as an error record (a value the writer could
// not encode); the run report then counts that job as failed.
func (e *Engine) runFunc(ctx context.Context, jobs []Job, emit func(Result) (encodeFailed bool)) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	bctx, bsp := telemetry.Start(ctx, "batch.run")
	bsp.AttrInt("jobs", int64(len(jobs)))
	bsp.AttrInt("workers", int64(workers))
	defer bsp.End()
	if len(jobs) == 0 {
		return
	}

	// The queue-depth gauge is driven exclusively through Add deltas on
	// its own atomic: publishing pending.Add(-1) via Set would let two
	// workers' loads/stores interleave and write an older depth over a
	// newer one (the gauge could jump backwards or, across overlapping
	// Runs, go negative). Every Run adds len(jobs) up front and each
	// worker subtracts one per job, so concurrent Runs compose and the
	// gauge lands back exactly where it started.
	var pending atomic.Int64
	pending.Store(int64(len(jobs)))
	qd := telemetry.G("batch.queue_depth")
	qd.Add(float64(len(jobs)))

	var rr *runReport
	if e.Report != nil {
		rr = e.Report.begin(len(jobs), &pending)
		defer rr.finish()
	}

	// The dispatcher mints each job's trace, so the journal's start
	// record and the job's result carry the same lineage.
	type handoff struct {
		i  int
		tr telemetry.TraceContext
	}
	feed := make(chan handoff)
	resCh := make(chan Result, workers)
	stats := make([]WorkerStats, workers)
	runStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker accounting: this goroutine is the only writer
			// of stats[w]; RunFunc reads it after wg settles. The loop
			// reads the clock once at each boundary and charges the
			// stretch since the previous one to exactly one bucket:
			// idle (waiting for work, including the final receive that
			// observes close), busy (taking the job through runJob) or
			// stall (reorder backpressure). Wall time ends at the last
			// boundary, so the buckets sum to it exactly.
			ws := &stats[w]
			ws.Worker = w
			wctx := withWorkerStats(bctx, ws)
			wallStart := time.Now()
			last := wallStart
			lap := func() int64 {
				now := time.Now()
				d := now.Sub(last).Nanoseconds()
				last = now
				return d
			}
			defer func() { ws.WallNS = last.Sub(wallStart).Nanoseconds() }()
			// A job's lineage is attached to its context only when
			// something can observe it: a tracer, the flight recorder, or
			// the reporter's slow-span capture. The disabled path thus
			// stays inside the per-job allocation budget.
			obsCtx := telemetry.TracerFrom(wctx) != nil ||
				telemetry.FlightEnabled() || e.Report.captureSpans(wctx)
			for {
				h, ok := <-feed
				ws.IdleNS += lap()
				if !ok {
					return
				}
				pending.Add(-1)
				qd.Add(-1)
				jctx := wctx
				if obsCtx {
					jctx = telemetry.WithTraceContext(wctx, h.tr)
				}
				r := e.runJob(jctx, w, h.i, jobs[h.i], h.tr)
				ws.BusyNS += lap()
				ws.Jobs++
				resCh <- r
				ws.StallNS += lap()
			}
		}(w)
	}
	go func() {
		// The dispatcher stops on cancellation instead of force-feeding
		// the remaining indices: workers drain what is already queued
		// and exit, and the undispatched jobs settle the gauges here.
		defer close(feed)
		for i := range jobs {
			// Lineage is minted unconditionally: an atomic increment plus
			// integer mixing, free next to a job.
			tr := jobs[i].Trace
			if !tr.Valid() {
				tr = telemetry.MintTrace()
			}
			select {
			case feed <- handoff{i, tr}:
				if e.OnStart != nil {
					e.OnStart(i, jobs[i].ID, tr)
				}
			case <-bctx.Done():
				skipped := int64(len(jobs) - i)
				pending.Add(-skipped)
				qd.Add(float64(-skipped))
				telemetry.C("batch.jobs_cancelled").Add(skipped)
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Reorder buffer: emit in job order as each prefix completes. After
	// cancellation the loop keeps draining resCh (the reporter still
	// observes every finished job) but emits nothing more. Occupancy is
	// tracked as a gauge (results parked waiting for their prefix) and
	// every out-of-order arrival counts as a reorder stall — together
	// they say whether ordered emission is what holds the workers back.
	buffered := make([]*Result, len(jobs))
	next := 0
	occ, peak := 0, 0
	var stalls int64
	roGauge := telemetry.G("batch.reorder_occupancy")
	for r := range resCh {
		r := r
		if rr != nil {
			rr.observe(r)
		}
		if bctx.Err() != nil {
			continue
		}
		if r.Index != next {
			stalls++
			telemetry.C("batch.reorder_stalls").Inc()
		}
		buffered[r.Index] = &r
		occ++
		roGauge.Add(1)
		if occ > peak {
			peak = occ
		}
		for next < len(jobs) && buffered[next] != nil {
			if bctx.Err() != nil {
				// emit itself may have cancelled the batch: stop even
				// mid-prefix.
				break
			}
			if emit(*buffered[next]) && rr != nil {
				rr.encodeFailed(*buffered[next])
			}
			buffered[next] = nil
			next++
			occ--
			roGauge.Add(-1)
		}
	}
	// Workers have exited (resCh closes after wg.Wait), so the stats
	// slice is quiescent and safe to hand out.
	rs := PoolStats{
		Jobs:          len(jobs),
		Workers:       workers,
		WallNS:        time.Since(runStart).Nanoseconds(),
		Worker:        stats,
		ReorderPeak:   peak,
		ReorderStalls: stalls,
	}
	// Cancellation can leave parked results behind: settle the gauge so
	// overlapping Runs still compose to zero.
	if occ > 0 {
		roGauge.Add(float64(-occ))
	}
	rs.publish(telemetry.Default())
	if rr != nil {
		rr.stats = &rs
	}
	if e.OnStats != nil {
		e.OnStats(rs)
	}
}

// jobLabel names one job for health reporting.
func jobLabel(idx int, id string) string {
	if id != "" {
		return id
	}
	return fmt.Sprintf("#%d", idx)
}

// runJob executes one job — attempt loop, breaker, degradation — with
// panic isolation. It always returns a Result, never panics.
func (e *Engine) runJob(ctx context.Context, worker, idx int, j Job, tr telemetry.TraceContext) (res Result) {
	res = Result{Index: idx, ID: j.ID, Trace: tr}
	start := time.Now()
	jctx := ctx
	// When the reporter wants slow-job span trees and no ambient tracer
	// is recording this run, give the job a private in-memory tracer:
	// its spans are kept if the job turns out slow and dropped for free
	// otherwise.
	var slowSpans *memSink
	if e.Report.captureSpans(jctx) {
		slowSpans = &memSink{}
		jctx = telemetry.WithTracer(jctx, telemetry.NewTracer(slowSpans))
	}
	jctx, sp := telemetry.Start(jctx, "batch.job")
	sp.AttrInt("index", int64(idx))
	if j.ID != "" {
		sp.AttrString("id", j.ID)
	}
	defer func() {
		if p := recover(); p != nil {
			// Backstop only: attempts recover their own panics.
			res.Net, res.Path, res.Tran = nil, nil, nil
			res.Err = fmt.Errorf("batch: job %d (%s) panicked: %v", idx, j.ID, p)
		}
		res.Elapsed = time.Since(start)
		telemetry.C("batch.jobs").Inc()
		if res.Err != nil {
			telemetry.C("batch.job_errors").Inc()
			sp.AttrString("error", res.Err.Error())
		}
		if res.Degraded != "" {
			sp.AttrString("degraded", res.Degraded)
		}
		sp.End()
		if telemetry.FlightEnabled() {
			ftr := tr
			ftr.Attempt = int32(res.Attempts)
			var code int64
			if res.Err != nil {
				code = 1
			}
			if res.Degraded != "" {
				telemetry.FlightRecordShard(worker, telemetry.FlightEvent{
					Kind: telemetry.FlightDegraded, Trace: ftr,
					Index: int64(idx), Label: res.DegradedFrom,
				})
			}
			telemetry.FlightRecordShard(worker, telemetry.FlightEvent{
				Kind: telemetry.FlightJobDone, Trace: ftr, Index: int64(idx),
				DurNS: res.Elapsed.Nanoseconds(), Code: code, Label: j.ID,
			})
		}
		e.Report.noteJob(idx, j.ID, tr, res.Err, res.Elapsed, slowSpans)
	}()
	e.runAttempts(jctx, idx, j, &res)
	return res
}

// runAttempts drives the retry loop for one job and fills res with the
// final outcome: a payload, a degraded bound interval, or an error.
func (e *Engine) runAttempts(ctx context.Context, idx int, j Job, res *Result) {
	if j.Err != nil {
		res.Err = j.Err
		return
	}
	kinds := 0
	for _, set := range []bool{j.Net != nil, j.Path != nil, j.Tran != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		res.Err = fmt.Errorf("batch: job %d (%s): exactly one of Net, Path or Tran must be set", idx, j.ID)
		return
	}

	// The tree resolves once and is memoized across attempts (no
	// re-parsing per retry); pre-built trees give the breaker its key
	// before the first attempt, loader-built trees after it. The key is
	// an O(N) hash, taken only when a breaker will read it. Path jobs
	// span multiple nets and skip the breaker.
	var tree *rctree.Tree
	switch {
	case j.Net != nil:
		tree = j.Net.Tree
	case j.Tran != nil:
		tree = j.Tran.Tree
	}
	var fp uint64
	haveFP := false
	if tree != nil && e.Breaker != nil {
		fp, haveFP = tree.Fingerprint(), true
	}

	attempts := e.Retry.Attempts()
	var lastErr error
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		if haveFP {
			if err := e.Breaker.Allow(fp); err != nil {
				lastErr = err
				break
			}
		}
		// Each attempt runs under its own span with the trace context
		// re-stamped, so every child span (moment sweeps, sim runs) is
		// attributable to trace+attempt, not just to the job. Both are
		// free when neither a tracer nor a trace context is installed.
		actx := telemetry.WithTraceAttempt(ctx, attempt)
		actx, asp := telemetry.Start(actx, "batch.attempt")
		asp.AttrInt("attempt", int64(attempt))
		pl, hit, err := e.attemptOnce(actx, idx, j, &tree)
		if err != nil {
			asp.AttrString("error", err.Error())
		}
		asp.End()
		if tree != nil && e.Breaker != nil && !haveFP {
			fp, haveFP = tree.Fingerprint(), true
		}
		if err == nil {
			if haveFP {
				e.Breaker.Success(fp)
			}
			res.CacheHit = hit
			res.Net, res.Path, res.Tran = pl.net, pl.path, pl.tran
			return
		}
		lastErr = err
		class := resilience.Classify(err)
		if class == resilience.Transient || class == resilience.Panicked {
			if haveFP {
				e.Breaker.Failure(fp)
			}
		}
		retryable := class == resilience.Transient ||
			(class == resilience.Panicked && e.Retry != nil && e.Retry.RetryPanics)
		if !retryable || attempt >= attempts {
			break
		}
		telemetry.C("resilience.retries").Inc()
		if telemetry.FlightEnabled() {
			tc, _ := telemetry.TraceContextFrom(ctx)
			tc.Attempt = int32(attempt)
			telemetry.FlightRecord(telemetry.FlightEvent{
				Kind: telemetry.FlightRetry, Trace: tc, Index: int64(idx),
				Code: int64(attempt), Label: j.ID,
			})
		}
		if serr := e.Retry.Sleep(ctx, attempt); serr != nil {
			// The batch is being torn down mid-backoff: report the
			// cancellation, not the attempt error, so a journal
			// re-queues the job instead of recording a failure.
			lastErr = serr
			break
		}
	}

	// Graceful degradation: a transient sweep whose simulation keeps
	// failing still has the paper's closed-form answer — one O(N)
	// moment pass gives [max(mu-sigma, 0), T_D] at every probe.
	if !e.NoDegrade && j.Tran != nil && tree != nil && resilience.Degradable(lastErr) {
		if net, _, derr := e.runNet(ctx, &NetJob{Sinks: j.Tran.Probes}, tree); derr == nil {
			res.Net = net
			res.Degraded = DegradedElmoreBound
			res.DegradedFrom = lastErr.Error()
			telemetry.C("resilience.degraded").Inc()
			health.Note(health.Event{
				Check:  "resilience.degraded",
				Tree:   health.TreeLabel(tree.N(), tree.Fingerprint()),
				Node:   jobLabel(idx, j.ID),
				Detail: fmt.Sprintf("sim failed after %d attempts, degraded to elmore-bound: %v", res.Attempts, lastErr),
			})
			return
		}
	}
	res.Err = lastErr
}

// payload carries one attempt's successful outcome.
type payload struct {
	net  *NetResult
	path *sta.PathResult
	tran *TranResult
}

// attemptOnce executes one attempt of a job under the per-attempt
// timeout, converting panics into *resilience.PanicError so the retry
// loop can classify them. tree memoizes Net/Tran net resolution across
// attempts.
func (e *Engine) attemptOnce(ctx context.Context, idx int, j Job, tree **rctree.Tree) (pl payload, hit bool, err error) {
	actx := ctx
	if e.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, e.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			pl = payload{}
			hit = false
			err = fmt.Errorf("batch: job %d (%s): %w", idx, j.ID, &resilience.PanicError{Value: p})
			if telemetry.FlightEnabled() {
				// Panic isolation is a dump trigger: the ring holds the
				// events leading up to it, which is exactly the postmortem
				// an always-on trace file would have cost every run.
				tc, _ := telemetry.TraceContextFrom(ctx)
				telemetry.FlightRecord(telemetry.FlightEvent{
					Kind: telemetry.FlightPanic, Trace: tc,
					Index: int64(idx), Label: j.ID,
				})
				telemetry.FlightDump("panic")
			}
		}
	}()
	if err := faultinject.Fire("batch.dispatch"); err != nil {
		return payload{}, false, err
	}
	switch {
	case j.Net != nil:
		if *tree == nil {
			t, lerr := resolveTree(j.Net.Load, "net")
			if lerr != nil {
				return payload{}, false, lerr
			}
			*tree = t
		}
		pl.net, hit, err = e.runNet(actx, j.Net, *tree)
	case j.Tran != nil:
		if *tree == nil {
			t, lerr := resolveTree(j.Tran.Load, "tran")
			if lerr != nil {
				return payload{}, false, lerr
			}
			*tree = t
		}
		pl.tran, hit, err = e.runTran(actx, j.Tran, *tree)
	default:
		pl.path, hit, err = e.runPath(actx, j.Path)
	}
	if err != nil {
		return payload{}, false, err
	}
	return pl, hit, nil
}

// resolveTree runs a job's lazy loader.
func resolveTree(load func() (*rctree.Tree, error), kind string) (*rctree.Tree, error) {
	if load == nil {
		return nil, fmt.Errorf("batch: %s job has neither Tree nor Load", kind)
	}
	return load()
}

// runNet answers a net job from the tree's O(N) sweeps and one
// evaluation per requested sink (core.BoundsAt). Sink names resolve
// first, but the errors keep their order: cancellation, then the
// analysis, then the first missing sink.
func (e *Engine) runNet(ctx context.Context, nj *NetJob, tree *rctree.Tree) (*NetResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	var nodes []int
	if len(nj.Sinks) == 0 {
		nodes = make([]int, tree.N())
		for i := range nodes {
			nodes[i] = i
		}
	} else {
		nodes = make([]int, 0, len(nj.Sinks))
		for _, name := range nj.Sinks {
			i, ok := tree.Index(name)
			if !ok {
				break // reported after the analysis
			}
			nodes = append(nodes, i)
		}
	}
	var (
		ms  *moments.Set
		hit bool
		err error
	)
	if e.Cache != nil {
		ms, hit, err = e.Cache.MomentsCtx(ctx, tree, 3)
		if err != nil {
			return nil, false, err
		}
	}
	bounds, err := core.BoundsAt(ctx, tree, ms, nodes)
	if err != nil {
		return nil, hit, err
	}
	_, isStep := nj.Input.(signal.Step)
	out := &NetResult{Sinks: make([]SinkBounds, len(bounds))}
	for k, b := range bounds {
		if err := ctx.Err(); err != nil {
			return nil, hit, err
		}
		sb := &out.Sinks[k]
		sb.Node, sb.Bounds = b.Node, b
		if nj.Input != nil && !isStep {
			ib, err := b.ForInput(nj.Input)
			if err != nil {
				return nil, hit, err
			}
			sb.Input = &ib
		}
	}
	if len(nodes) < len(nj.Sinks) {
		if err := ctx.Err(); err != nil {
			return nil, hit, err
		}
		return nil, hit, fmt.Errorf("batch: net has no node %q", nj.Sinks[len(nodes)])
	}
	return out, hit, nil
}

func (e *Engine) runPath(ctx context.Context, pj *PathJob) (*sta.PathResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	p := pj.Path
	if p == nil {
		if pj.Load == nil {
			return nil, false, fmt.Errorf("batch: path job has neither Path nor Load")
		}
		loaded, err := pj.Load()
		if err != nil {
			return nil, false, err
		}
		p = loaded
	}
	var src sta.MomentSource
	hit := false
	if e.Cache != nil {
		// The source runs synchronously inside this job, so the hit
		// flag needs no synchronization.
		src = func(ctx context.Context, t *rctree.Tree) (*moments.Set, error) {
			ms, h, err := e.Cache.MomentsCtx(ctx, t, 3)
			if h {
				hit = true
			}
			return ms, err
		}
	}
	res, err := sta.AnalyzePathMoments(ctx, *p, src)
	return res, hit, err
}
