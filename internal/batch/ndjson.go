package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"elmore/internal/faultinject"
	"elmore/internal/gate"
	"elmore/internal/health"
	"elmore/internal/resilience"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
)

// ResultRecord is the NDJSON form of one Result, as streamed by the
// -jobs mode of boundstat and sta: one JSON object per line, in job
// order. Exactly one of Sinks, Path or Tran is present on success;
// Error is set on failure (and all payloads are absent). A degraded
// record is a success whose Sinks carry the paper's bound interval in
// place of the failed simulation — degraded names the substitution
// ("elmore-bound") and degraded_from the suppressed failure. All times
// are seconds.
type ResultRecord struct {
	Index        int          `json:"index"`
	ID           string       `json:"id,omitempty"`
	Error        string       `json:"error,omitempty"`
	CacheHit     bool         `json:"cache_hit,omitempty"`
	ElapsedNS    int64        `json:"elapsed_ns"`
	Attempts     int          `json:"attempts,omitempty"`
	Degraded     string       `json:"degraded,omitempty"`
	DegradedFrom string       `json:"degraded_from,omitempty"`
	TraceID      string       `json:"trace_id,omitempty"` // request lineage (PR 9)
	Sinks        []SinkRecord `json:"sinks,omitempty"`
	Path         *PathRecord  `json:"path,omitempty"`
	Tran         *TranRecord  `json:"tran,omitempty"`
}

// SinkRecord reports the paper's step-input bounds at one node, plus
// the generalized-input window when the job asked for a ramp.
type SinkRecord struct {
	Node     string       `json:"node"`
	Elmore   float64      `json:"elmore"`
	Lower    float64      `json:"lower"`
	PRHTmin  float64      `json:"prh_tmin"`
	PRHTmax  float64      `json:"prh_tmax"`
	Sigma    float64      `json:"sigma"`
	Skewness float64      `json:"skewness"`
	RiseTime float64      `json:"rise_time"`
	Input    *InputRecord `json:"input,omitempty"`
}

// InputRecord is the generalized-input delay window (Theorem 2 /
// Corollary 2 terms) for a non-step excitation.
type InputRecord struct {
	Upper       float64 `json:"upper"`
	Lower       float64 `json:"lower"`
	OutputSigma float64 `json:"output_sigma"`
	OutputSkew  float64 `json:"output_skew"`
}

// PathRecord reports an STA path walk.
type PathRecord struct {
	ArrivalUB float64       `json:"arrival_ub"`
	ArrivalLB float64       `json:"arrival_lb"`
	Stages    []StageRecord `json:"stages"`
}

// TranRecord reports a transient characterization sweep: one run per
// input, each carrying the measured threshold crossings.
type TranRecord struct {
	Runs []TranRunRecord `json:"runs"`
}

// TranRunRecord is one input of a TranRecord.
type TranRunRecord struct {
	Input     int               `json:"input"`
	Crossings []TranCrossRecord `json:"crossings"`
}

// TranCrossRecord is one measured threshold crossing.
type TranCrossRecord struct {
	Node    string  `json:"node"`
	Level   float64 `json:"level"`
	T       float64 `json:"t,omitempty"`
	Reached bool    `json:"reached"`
}

// StageRecord is one stage of a PathRecord.
type StageRecord struct {
	Cell       string  `json:"cell"`
	Sink       string  `json:"sink"`
	Ceff       float64 `json:"ceff"`
	GateDelay  float64 `json:"gate_delay"`
	OutputSlew float64 `json:"output_slew"`
	NetElmore  float64 `json:"net_elmore"`
	NetLower   float64 `json:"net_lower"`
	SinkSlew   float64 `json:"sink_slew"`
	ArrivalUB  float64 `json:"arrival_ub"`
	ArrivalLB  float64 `json:"arrival_lb"`
}

// Record converts an engine Result into its NDJSON form.
func Record(r Result) ResultRecord {
	rec := ResultRecord{
		Index:        r.Index,
		ID:           r.ID,
		CacheHit:     r.CacheHit,
		ElapsedNS:    r.Elapsed.Nanoseconds(),
		Attempts:     r.Attempts,
		Degraded:     r.Degraded,
		DegradedFrom: r.DegradedFrom,
		TraceID:      r.Trace.TraceID(),
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		return rec
	}
	if r.Net != nil {
		for _, s := range r.Net.Sinks {
			rec.Sinks = append(rec.Sinks, sinkRecord(s))
		}
	}
	if r.Path != nil {
		p := &PathRecord{ArrivalUB: r.Path.ArrivalUB, ArrivalLB: r.Path.ArrivalLB}
		for _, st := range r.Path.Stages {
			p.Stages = append(p.Stages, stageRecord(st))
		}
		rec.Path = p
	}
	if r.Tran != nil {
		tr := &TranRecord{Runs: make([]TranRunRecord, 0, len(r.Tran.Runs))}
		for _, run := range r.Tran.Runs {
			rr := TranRunRecord{Input: run.Input, Crossings: make([]TranCrossRecord, 0, len(run.Crossings))}
			for _, c := range run.Crossings {
				rr.Crossings = append(rr.Crossings, TranCrossRecord{Node: c.Node, Level: c.Level, T: c.T, Reached: c.Reached})
			}
			tr.Runs = append(tr.Runs, rr)
		}
		rec.Tran = tr
	}
	return rec
}

func sinkRecord(s SinkBounds) SinkRecord {
	out := SinkRecord{
		Node:     s.Node,
		Elmore:   s.Bounds.Elmore,
		Lower:    s.Bounds.Lower,
		PRHTmin:  s.Bounds.PRHTmin,
		PRHTmax:  s.Bounds.PRHTmax,
		Sigma:    s.Bounds.Sigma,
		Skewness: s.Bounds.Skewness,
		RiseTime: s.Bounds.RiseTime,
	}
	if s.Input != nil {
		out.Input = &InputRecord{
			Upper:       s.Input.Upper,
			Lower:       s.Input.Lower,
			OutputSigma: s.Input.OutputSigma,
			OutputSkew:  s.Input.OutputSkew,
		}
	}
	return out
}

func stageRecord(st sta.StageResult) StageRecord {
	return StageRecord{
		Cell:       st.Cell,
		Sink:       st.Sink,
		Ceff:       st.Ceff,
		GateDelay:  st.GateDelay,
		OutputSlew: st.OutputSlew,
		NetElmore:  st.NetElmore,
		NetLower:   st.NetLower,
		SinkSlew:   st.SinkSlew,
		ArrivalUB:  st.ArrivalUB,
		ArrivalLB:  st.ArrivalLB,
	}
}

// WriteResult writes one Result as an NDJSON line. A value the JSON
// encoder rejects (NaN/Inf should not escape the bound engines, but a
// batch must not die on one) degrades to an error record for that job.
func WriteResult(w io.Writer, r Result) error {
	if err := faultinject.Fire("batch.write"); err != nil {
		return fmt.Errorf("batch: write result %d: %w", r.Index, err)
	}
	rec := Record(r)
	b, err := json.Marshal(rec)
	if err != nil {
		b, err = json.Marshal(ResultRecord{Index: rec.Index, ID: rec.ID, ElapsedNS: rec.ElapsedNS,
			Error: fmt.Sprintf("batch: encode result: %v", err)})
		if err != nil {
			return err
		}
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RunStats summarizes one RunSpecsOpts run.
type RunStats struct {
	Total    int // spec lines decoded
	Emitted  int // result lines written this run
	Failed   int // emitted error records
	Degraded int // emitted degraded (elmore-bound) records
	Skipped  int // jobs skipped as already done in the journal
	Requeued int // jobs re-queued after being in flight at the crash
}

// SpecRunOptions parameterizes RunSpecsOpts. The zero value reads the
// spec stream, runs every job with a tree cache of its own, and keeps
// no journal.
type SpecRunOptions struct {
	// Lib resolves path-job cells; nil is fine when no path jobs occur.
	Lib *gate.Library
	// DefaultSlew is the path-job input slew when a spec leaves "slew"
	// empty.
	DefaultSlew float64
	// Loader resolves net references (file path or inline text). nil
	// means a TreeCache of DefaultHotTrees trees built for this run
	// alone, so a run parses each distinct deck once, however many jobs
	// name it, and shares nothing with other runs; it counts in the
	// batch.hot_tree_* counters. elmored injects its long-lived cache
	// here, and DefaultTreeLoader parses every reference afresh.
	Loader TreeLoader
	// Journal and Replay are the crash-safe checkpoint pair; each may be
	// nil (no journaling / fresh start).
	Journal *Journal
	Replay  *Replay
	// Specs, when non-nil, bypasses the reader entirely — the caller
	// already decoded (and perhaps bounds-checked) the job stream.
	Specs []JobSpec
}

// RunSpecsOpts runs a spec stream, for the -jobs mode of the CLIs and
// for elmored: it decodes the NDJSON job stream from r (ignored when
// opts.Specs is non-nil), materializes the jobs, evaluates them on the
// engine, and streams one NDJSON result line per job to w, in job
// order.
//
// With a journal it checkpoints crash-safely: jobs the replay marks
// done are skipped (their results were already emitted by the previous
// run), jobs it marks started are re-queued under the trace their start
// record carried (a spec's own trace_id still wins), and every job this
// run completes is journaled — "start" once a worker takes it, "done"
// only after its result line reached w — so a kill-and-restart cycle
// emits every result exactly once across the concatenated outputs. Jobs
// that ended with the batch context's cancellation are neither emitted
// nor journaled done: the next resume re-queues them.
//
// Per-job failures are error records in the stream (fail-soft) counted
// in RunStats.Failed. The returned error reports an unreadable spec
// stream, a failing writer or journal, or an interrupted run (the batch
// context's error).
func RunSpecsOpts(ctx context.Context, e *Engine, r io.Reader, w io.Writer, opts SpecRunOptions) (RunStats, error) {
	specs := opts.Specs
	if specs == nil {
		var err error
		if specs, err = ReadSpecs(r); err != nil {
			return RunStats{}, err
		}
	}
	load := opts.Loader
	if load == nil {
		load = NewTreeCache(DefaultHotTrees, "batch.hot_tree").Load
	}
	jr, rp := opts.Journal, opts.Replay
	st := RunStats{Total: len(specs)}
	jobs := make([]Job, 0, len(specs))
	orig := make([]int, 0, len(specs)) // submitted index -> spec index
	for i, s := range specs {
		var resumed telemetry.TraceContext
		if rp != nil {
			key := JobKey(i, s.ID)
			if rp.Done[key] {
				st.Skipped++
				continue
			}
			if tr, ok := rp.Started[key]; ok {
				st.Requeued++
				resumed = tr
			}
		}
		j := s.JobLoader(opts.Lib, opts.DefaultSlew, load)
		if !j.Trace.Valid() {
			j.Trace = resumed
		}
		jobs = append(jobs, j)
		orig = append(orig, i)
	}
	if st.Requeued > 0 {
		telemetry.C("batch.resumed_jobs").Add(int64(st.Requeued))
	}

	// Shallow-copy the engine to chain the journal onto OnStart without
	// mutating the caller's value. The dispatcher writes the start
	// records and the emit callback below the done records, both
	// straight into the journal: two writers, whatever the worker count.
	eng := *e
	if jr != nil {
		prev := eng.OnStart
		eng.OnStart = func(idx int, id string, trace telemetry.TraceContext) {
			if prev != nil {
				prev(idx, id, trace)
			}
			if jerr := jr.Start(orig[idx], id, trace.TraceID()); jerr != nil {
				health.Note(health.Event{Check: "batch.journal_error", Detail: jerr.Error()})
			}
		}
	}

	var werr error
	eng.RunFunc(ctx, jobs, func(res Result) {
		if res.Err != nil && resilience.Classify(res.Err) == resilience.Canceled {
			// Torn down, not failed: suppress the record so a resume
			// re-runs the job instead of trusting a cancellation error.
			return
		}
		res.Index = orig[res.Index]
		if werr != nil {
			return
		}
		if werr = WriteResult(w, res); werr != nil {
			return
		}
		st.Emitted++
		if res.Err != nil {
			st.Failed++
		}
		if res.Degraded != "" {
			st.Degraded++
		}
		werr = jr.Done(res.Index, res.ID)
	})
	if werr != nil {
		return st, werr
	}
	if err := jr.Sync(); err != nil {
		return st, err
	}
	return st, ctx.Err()
}
