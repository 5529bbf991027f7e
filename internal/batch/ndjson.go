package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"elmore/internal/faultinject"
	"elmore/internal/gate"
	"elmore/internal/health"
	"elmore/internal/resilience"
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

// WriteResult writes one Result as an NDJSON line, with one Write. The
// line is byte for byte what encoding/json writes for the result's
// ResultRecord, newline included. A value JSON cannot encode (NaN/Inf
// should not escape the bound engines, but a batch must not die on one)
// degrades to an error record for that job.
func WriteResult(w io.Writer, r Result) error {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	_, err := writeLine(w, r, buf)
	return err
}

// lineBufs holds WriteResult's line buffers; RunSpecsOpts keeps one of
// its own for the run.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeLine writes r's result line through *buf, which it grows and
// keeps for the next line. failed reports an error record.
func writeLine(w io.Writer, r Result, buf *[]byte) (failed bool, err error) {
	if err := faultinject.Fire("batch.write"); err != nil {
		return false, fmt.Errorf("batch: write result %d: %w", r.Index, err)
	}
	*buf, failed = AppendResultLine((*buf)[:0], r)
	_, err = w.Write(*buf)
	return failed, err
}

// AppendResultLine appends r's NDJSON result line, newline included,
// to dst and returns the extended slice. A value JSON cannot encode
// degrades the line to an error record carrying the job's index, id and
// elapsed time; failed reports an error record, degraded or not.
func AppendResultLine(dst []byte, r Result) (line []byte, failed bool) {
	line, err := appendResult(dst, r)
	if err != nil {
		line, _ = appendResult(dst, Result{Index: r.Index, ID: r.ID, Elapsed: r.Elapsed,
			Err: fmt.Errorf("batch: encode result: %v", err)})
	}
	return append(line, '\n'), r.Err != nil || err != nil
}

// appendResult appends r's ResultRecord as json.Marshal writes it:
// the same fields in the same order under the same omitempty rules, the
// same number and string text, and for NaN or ±Inf the same error.
func appendResult(dst []byte, r Result) ([]byte, error) {
	e := lineEncoder{b: dst}
	e.int(`{"index":`, int64(r.Index))
	e.str(`,"id":`, r.ID)
	if r.Err != nil {
		e.str(`,"error":`, r.Err.Error())
	}
	if r.CacheHit {
		e.b = append(e.b, `,"cache_hit":true`...)
	}
	e.int(`,"elapsed_ns":`, r.Elapsed.Nanoseconds())
	if r.Attempts != 0 {
		e.int(`,"attempts":`, int64(r.Attempts))
	}
	e.str(`,"degraded":`, r.Degraded)
	e.str(`,"degraded_from":`, r.DegradedFrom)
	if r.Trace.Valid() {
		e.b = append(e.b, `,"trace_id":"`...)
		e.b = append(r.Trace.AppendTraceID(e.b), '"')
	}
	if r.Err != nil {
		return append(e.b, '}'), nil
	}
	if r.Net != nil && len(r.Net.Sinks) > 0 {
		e.b = append(e.b, `,"sinks":[`...)
		for k, s := range r.Net.Sinks {
			if k > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"node":`...)
			e.b = appendString(e.b, s.Node)
			b := &s.Bounds
			e.float(`,"elmore":`, b.Elmore)
			e.float(`,"lower":`, b.Lower)
			e.float(`,"prh_tmin":`, b.PRHTmin)
			e.float(`,"prh_tmax":`, b.PRHTmax)
			e.float(`,"sigma":`, b.Sigma)
			e.float(`,"skewness":`, b.Skewness)
			e.float(`,"rise_time":`, b.RiseTime)
			if in := s.Input; in != nil {
				e.float(`,"input":{"upper":`, in.Upper)
				e.float(`,"lower":`, in.Lower)
				e.float(`,"output_sigma":`, in.OutputSigma)
				e.float(`,"output_skew":`, in.OutputSkew)
				e.b = append(e.b, '}')
			}
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if p := r.Path; p != nil {
		e.float(`,"path":{"arrival_ub":`, p.ArrivalUB)
		e.float(`,"arrival_lb":`, p.ArrivalLB)
		if len(p.Stages) == 0 {
			e.b = append(e.b, `,"stages":null`...)
		} else {
			e.b = append(e.b, `,"stages":[`...)
			for k, st := range p.Stages {
				if k > 0 {
					e.b = append(e.b, ',')
				}
				e.b = append(e.b, `{"cell":`...)
				e.b = appendString(e.b, st.Cell)
				e.b = append(e.b, `,"sink":`...)
				e.b = appendString(e.b, st.Sink)
				e.float(`,"ceff":`, st.Ceff)
				e.float(`,"gate_delay":`, st.GateDelay)
				e.float(`,"output_slew":`, st.OutputSlew)
				e.float(`,"net_elmore":`, st.NetElmore)
				e.float(`,"net_lower":`, st.NetLower)
				e.float(`,"sink_slew":`, st.SinkSlew)
				e.float(`,"arrival_ub":`, st.ArrivalUB)
				e.float(`,"arrival_lb":`, st.ArrivalLB)
				e.b = append(e.b, '}')
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, '}')
	}
	if tr := r.Tran; tr != nil {
		e.b = append(e.b, `,"tran":{"runs":[`...)
		for k, run := range tr.Runs {
			if k > 0 {
				e.b = append(e.b, ',')
			}
			e.int(`{"input":`, int64(run.Input))
			e.b = append(e.b, `,"crossings":[`...)
			for m, c := range run.Crossings {
				if m > 0 {
					e.b = append(e.b, ',')
				}
				e.b = append(e.b, `{"node":`...)
				e.b = appendString(e.b, c.Node)
				e.float(`,"level":`, c.Level)
				if c.T != 0 {
					e.float(`,"t":`, c.T)
				}
				e.b = strconv.AppendBool(append(e.b, `,"reached":`...), c.Reached)
				e.b = append(e.b, '}')
			}
			e.b = append(e.b, "]}"...)
		}
		e.b = append(e.b, "]}"...)
	}
	return append(e.b, '}'), e.err
}

// lineEncoder appends the fields of one result line. key arguments
// carry the separator and quoted name ahead of the value.
type lineEncoder struct {
	b   []byte
	err error // the first float JSON cannot encode
}

func (e *lineEncoder) int(key string, v int64) {
	e.b = strconv.AppendInt(append(e.b, key...), v, 10)
}

// str appends a string field, omitted when empty.
func (e *lineEncoder) str(key, v string) {
	if v != "" {
		e.b = appendString(append(e.b, key...), v)
	}
}

// float appends a float field as encoding/json formats a float64: like
// ES6 number-to-string, 'f' notation for 0 and 1e-6 <= |f| < 1e21,
// otherwise 'e' with the exponent unpadded. NaN and ±Inf record the
// error json.Marshal returns for them.
func (e *lineEncoder) float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.b = append(e.b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 -> e-7
		e.b = e.b[:n-1]
	}
}

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: \uXXXX for control bytes and for <, > and &,
// \ufffd for each invalid UTF-8 byte, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigit[c>>4], hexDigit[c&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigit[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigit = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// HTML escaping: everything from the space up except ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// RunStats summarizes one RunSpecsOpts run.
type RunStats struct {
	Total    int // spec lines decoded
	Emitted  int // result lines written this run
	Failed   int // emitted error records, results JSON cannot encode included
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
	// alone and set as the engine's Trees, so a run parses each
	// distinct deck once and computes its moments once, however many
	// jobs name it, and shares nothing with other runs; it counts in
	// the batch.hot_tree_* counters. elmored injects its long-lived
	// cache here (and in its engine), and DefaultTreeLoader parses every
	// reference afresh.
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
	// Shallow-copy the engine to give it the run's own tree cache and to
	// chain the journal onto OnStart without mutating the caller's value.
	eng := *e
	load := opts.Loader
	if load == nil {
		eng.Trees = NewTreeCache(DefaultHotTrees, "batch.hot_tree")
		load = eng.Trees.Load
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

	// The dispatcher writes the start records and the emit callback
	// below the done records, both straight into the journal: two
	// writers, whatever the worker count.
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

	var (
		werr error
		line []byte // the emit callback runs on one goroutine
	)
	eng.runFunc(ctx, jobs, func(res Result) bool {
		if res.Err != nil && resilience.Classify(res.Err) == resilience.Canceled {
			// Torn down, not failed: suppress the record so a resume
			// re-runs the job instead of trusting a cancellation error.
			return false
		}
		res.Index = orig[res.Index]
		if werr != nil {
			return false
		}
		failed, err := writeLine(w, res, &line)
		if werr = err; werr != nil {
			return false
		}
		st.Emitted++
		if failed {
			st.Failed++
		}
		if res.Degraded != "" {
			st.Degraded++
		}
		werr = jr.Done(res.Index, res.ID)
		return failed && res.Err == nil
	})
	if werr != nil {
		return st, werr
	}
	if err := jr.Sync(); err != nil {
		return st, err
	}
	return st, ctx.Err()
}
