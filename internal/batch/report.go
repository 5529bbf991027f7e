package batch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"elmore/internal/health"
	"elmore/internal/telemetry"
)

// Reporter turns a batch run into operator-facing output: periodic
// progress lines, an NDJSON log of slow jobs (with their captured span
// trees), and one final NDJSON run summary. Every field is optional —
// a nil writer disables that output — so the zero value is inert and
// the engine pays nothing when no Reporter is installed.
//
// A Reporter may be shared by concurrent Runs of the same Engine: the
// writers are serialized internally, while per-run aggregation state
// lives in the run, not the Reporter.
type Reporter struct {
	// Progress receives human-readable progress lines (done/total,
	// error count, rate, ETA, queue depth) every Interval, plus one
	// final line when the run completes. Typically os.Stderr.
	Progress io.Writer
	// Interval is the progress period; <= 0 means 2s.
	Interval time.Duration
	// SlowThreshold marks jobs whose wall time meets or exceeds it as
	// slow; <= 0 disables the slow log.
	SlowThreshold time.Duration
	// Slow receives one NDJSON record per slow job, including the
	// job's span tree when no ambient tracer already claims the spans.
	Slow io.Writer
	// Summary receives the final NDJSON batch_summary record.
	Summary io.Writer
	// SLOs are the run's declarative latency objectives (parsed from
	// -slo). Each finished job is scored good or bad against every
	// objective; the summary reports the counts and burn rates, and
	// they are published as batch.slo.* gauges at run end.
	SLOs []telemetry.SLO

	mu  sync.Mutex       // serializes Slow/Summary/Progress writes
	now func() time.Time // test hook; nil means time.Now
}

func (rep *Reporter) clock() time.Time {
	if rep.now != nil {
		return rep.now()
	}
	return time.Now()
}

func (rep *Reporter) interval() time.Duration {
	if rep.Interval > 0 {
		return rep.Interval
	}
	return 2 * time.Second
}

// captureSpans reports whether runJob should install a per-job memory
// tracer so a slow job's spans can be dumped. An ambient tracer wins:
// its trace already has the spans, and re-rooting them under a second
// tracer would double-emit.
func (rep *Reporter) captureSpans(ctx context.Context) bool {
	return rep != nil && rep.Slow != nil && rep.SlowThreshold > 0 &&
		telemetry.TracerFrom(ctx) == nil
}

// slowRecord is the NDJSON schema of one slow-job line.
type slowRecord struct {
	Record    string            `json:"record"` // "slow_job"
	Index     int               `json:"index"`
	ID        string            `json:"id,omitempty"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Error     string            `json:"error,omitempty"`
	Spans     []json.RawMessage `json:"spans,omitempty"`
}

// noteJob is called from runJob's defer for every job; it writes a
// slow_job record when the job crossed the threshold and flags the
// breach to the flight recorder.
func (rep *Reporter) noteJob(idx int, id string, trace telemetry.TraceContext, jobErr error, elapsed time.Duration, spans *memSink) {
	if rep == nil || rep.SlowThreshold <= 0 || elapsed < rep.SlowThreshold {
		return
	}
	if telemetry.FlightEnabled() {
		telemetry.FlightRecord(telemetry.FlightEvent{
			Kind: telemetry.FlightSlowJob, Trace: trace, Index: int64(idx),
			DurNS: elapsed.Nanoseconds(), Label: id,
		})
		telemetry.FlightDump("slow-job")
	}
	if rep.Slow == nil {
		return
	}
	rec := slowRecord{
		Record:    "slow_job",
		Index:     idx,
		ID:        id,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if jobErr != nil {
		rec.Error = jobErr.Error()
	}
	if spans != nil {
		rec.Spans = spans.take()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.Slow.Write(append(line, '\n'))
}

// memSink buffers span records in memory so they can be attached to a
// slow_job record — or dropped for free when the job was fast. The
// Tracer serializes Emit calls, so no locking is needed here.
type memSink struct {
	lines []json.RawMessage
}

func (s *memSink) Emit(record []byte) error {
	s.lines = append(s.lines, json.RawMessage(record))
	return nil
}

func (s *memSink) take() []json.RawMessage { return s.lines }

// runReport is the per-Run aggregation state behind a Reporter.
type runReport struct {
	rep     *Reporter
	total   int
	start   time.Time
	pending *atomic.Int64 // jobs not yet picked up by a worker
	done    atomic.Int64
	errs    atomic.Int64
	stop    chan struct{}
	ticker  sync.WaitGroup

	// Consumer-loop state: observe() runs only on RunFunc's calling
	// goroutine, so these need no locking.
	//
	// Latency aggregation is bounded-memory: every sample lands in the
	// fixed-size sketch, whatever the run size.
	sketch        *telemetry.DurationSketch
	slo           *telemetry.SLOTracker
	cacheHits     int64
	slowJobs      int64
	errsByKind    map[string]int64
	healthEvents0 int64
	healthViol0   int64

	// stats is set by RunFunc after the workers exit and before the
	// deferred finish runs; nil when the engine predates accounting
	// (zero-job runs).
	stats *PoolStats
}

// begin starts per-run reporting: snapshots the health counters and,
// when Progress is set, launches the ticker goroutine.
func (rep *Reporter) begin(total int, pending *atomic.Int64) *runReport {
	rr := &runReport{
		rep:        rep,
		total:      total,
		start:      rep.clock(),
		pending:    pending,
		stop:       make(chan struct{}),
		sketch:     telemetry.NewDurationSketch(),
		slo:        telemetry.NewSLOTracker(rep.SLOs),
		errsByKind: make(map[string]int64),
	}
	if m := health.Default(); m != nil {
		rr.healthEvents0 = m.Events()
		rr.healthViol0 = m.Violations()
	}
	if rep.Progress != nil {
		rr.ticker.Add(1)
		go func() {
			defer rr.ticker.Done()
			t := time.NewTicker(rep.interval())
			defer t.Stop()
			for {
				select {
				case <-rr.stop:
					return
				case <-t.C:
					rr.progressLine()
				}
			}
		}()
	}
	return rr
}

// observe folds one finished job into the run statistics. Called on
// the RunFunc goroutine only.
func (rr *runReport) observe(r Result) {
	rr.done.Add(1)
	rr.sketch.Observe(r.Elapsed)
	rr.slo.Observe(r.Elapsed, r.Err != nil)
	if r.CacheHit {
		rr.cacheHits++
	}
	if rr.rep.SlowThreshold > 0 && r.Elapsed >= rr.rep.SlowThreshold {
		rr.slowJobs++
	}
	if r.Err != nil {
		rr.errs.Add(1)
		switch {
		case errors.Is(r.Err, context.DeadlineExceeded):
			rr.errsByKind["timeout"]++
		case errors.Is(r.Err, context.Canceled):
			rr.errsByKind["canceled"]++
		default:
			rr.errsByKind["failed"]++
		}
	}
}

// encodeFailed turns a job observe counted as a success into a failure:
// the writer could not encode its result and wrote an error record
// instead. Called on the RunFunc goroutine only, after observe(r).
func (rr *runReport) encodeFailed(r Result) {
	rr.errs.Add(1)
	rr.errsByKind["failed"]++
	rr.slo.Fail(r.Elapsed)
}

// progressLine writes one progress line; safe to call from the ticker
// goroutine (it touches only atomics and the serialized writer).
func (rr *runReport) progressLine() {
	rep := rr.rep
	if rep.Progress == nil {
		return
	}
	done := rr.done.Load()
	elapsed := rep.clock().Sub(rr.start).Seconds()
	rate, eta := 0.0, "?"
	if done > 0 && elapsed > 0 {
		rate = float64(done) / elapsed
		eta = fmt.Sprintf("%.1fs", float64(rr.total-int(done))/rate)
	}
	line := fmt.Sprintf("batch: %d/%d done, %d errors, %.1f jobs/s, eta %s, queue %d\n",
		done, rr.total, rr.errs.Load(), rate, eta, rr.pending.Load())
	rep.mu.Lock()
	defer rep.mu.Unlock()
	io.WriteString(rep.Progress, line)
}

// summaryRecord is the NDJSON schema of the final run summary. The
// workers array is the per-worker utilization table; efficiency is
// Σbusy / (workers × wall), the number a scaling sweep plots.
type summaryRecord struct {
	Record       string           `json:"record"` // "batch_summary"
	Jobs         int              `json:"jobs"`
	Errors       int64            `json:"errors"`
	ErrorsByKind map[string]int64 `json:"errors_by_kind,omitempty"`
	CacheHits    int64            `json:"cache_hits"`
	CacheHitRate float64          `json:"cache_hit_rate"`
	SlowJobs     int64            `json:"slow_jobs"`
	ElapsedMS    float64          `json:"elapsed_ms"`
	// LatencyMS comes from the bounded-memory sketch: p50/p95/p99 to
	// ~1% relative error, max exact.
	LatencyMS    latencyStats `json:"latency_ms"`
	SLO          []sloRecord  `json:"slo,omitempty"`
	HealthEvents int64        `json:"health_events"`
	HealthViol   int64        `json:"health_violations"`

	Workers       []workerRecord `json:"workers,omitempty"`
	Efficiency    float64        `json:"parallel_efficiency,omitempty"`
	ReorderPeak   int            `json:"reorder_peak,omitempty"`
	ReorderStalls int64          `json:"reorder_stalls,omitempty"`
}

// workerRecord is one row of the per-worker utilization table.
type workerRecord struct {
	Worker      int     `json:"worker"`
	Jobs        int64   `json:"jobs"`
	BusyMS      float64 `json:"busy_ms"`
	IdleMS      float64 `json:"idle_ms"`
	StallMS     float64 `json:"stall_ms"`
	LockWaitMS  float64 `json:"lock_wait_ms"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Utilization float64 `json:"utilization"`
	Accounted   float64 `json:"accounted"`
}

type latencyStats struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// sloRecord is one objective's row in the summary.
type sloRecord struct {
	Name     string  `json:"name"` // "p99"
	TargetMS float64 `json:"target_ms"`
	Good     int64   `json:"good"`
	Bad      int64   `json:"bad"`
	BurnRate float64 `json:"burn_rate"`
}

// finish stops the ticker, writes the final progress line, and emits
// the batch_summary record.
func (rr *runReport) finish() {
	close(rr.stop)
	rr.ticker.Wait()
	rr.progressLine()
	rr.slo.Publish()
	rep := rr.rep
	if rep.Summary == nil {
		return
	}
	rec := summaryRecord{
		Record:    "batch_summary",
		Jobs:      rr.total,
		Errors:    rr.errs.Load(),
		CacheHits: rr.cacheHits,
		SlowJobs:  rr.slowJobs,
		ElapsedMS: float64(rep.clock().Sub(rr.start)) / float64(time.Millisecond),
		LatencyMS: sketchStats(rr.sketch),
	}
	for i, s := range rep.SLOs {
		rec.SLO = append(rec.SLO, sloRecord{
			Name:     s.Name,
			TargetMS: float64(s.Target) / float64(time.Millisecond),
			Good:     rr.slo.Good(i),
			Bad:      rr.slo.Bad(i),
			BurnRate: rr.slo.BurnRate(i),
		})
	}
	if len(rr.errsByKind) > 0 {
		rec.ErrorsByKind = rr.errsByKind
	}
	if rr.total > 0 {
		rec.CacheHitRate = float64(rr.cacheHits) / float64(rr.total)
	}
	if m := health.Default(); m != nil {
		rec.HealthEvents = m.Events() - rr.healthEvents0
		rec.HealthViol = m.Violations() - rr.healthViol0
	}
	if rs := rr.stats; rs != nil {
		rec.Efficiency = rs.Efficiency()
		rec.ReorderPeak = rs.ReorderPeak
		rec.ReorderStalls = rs.ReorderStalls
		const ms = float64(time.Millisecond)
		for _, ws := range rs.Worker {
			rec.Workers = append(rec.Workers, workerRecord{
				Worker:      ws.Worker,
				Jobs:        ws.Jobs,
				BusyMS:      float64(ws.BusyNS) / ms,
				IdleMS:      float64(ws.IdleNS) / ms,
				StallMS:     float64(ws.StallNS) / ms,
				LockWaitMS:  float64(ws.LockWaitNS) / ms,
				CacheHits:   ws.CacheHits,
				CacheMisses: ws.CacheMisses,
				Utilization: ws.Utilization(),
				Accounted:   ws.Accounted(),
			})
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.Summary.Write(append(line, '\n'))
}

// sketchStats reads p50/p95/p99/max in milliseconds from the
// bounded-memory sketch (max is exact, the rest ~1% relative error).
func sketchStats(s *telemetry.DurationSketch) latencyStats {
	if s == nil || s.Count() == 0 {
		return latencyStats{}
	}
	const ms = float64(time.Millisecond)
	return latencyStats{
		P50: float64(s.Quantile(0.50)) / ms,
		P95: float64(s.Quantile(0.95)) / ms,
		P99: float64(s.Quantile(0.99)) / ms,
		Max: float64(s.Max()) / ms,
	}
}
