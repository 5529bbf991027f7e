// Command tracestat analyzes a JSON-lines span trace produced by the
// -trace flag of the elmore CLIs (see internal/telemetry). It answers
// "where did the time go": a per-phase aggregate table with counts,
// total and self time (duration minus time attributed to child spans)
// and latency percentiles, plus an optional parent/child rollup tree.
//
// Usage:
//
//	tracestat trace.ndjson
//	tracestat -top 10 trace.ndjson
//	tracestat -rollup trace.ndjson
//	tracestat -by-trace trace.ndjson flight.ndjson
//	boundstat -trace /dev/stdout ... | tracestat -
//
// The final line reports the trace wall time (last span end minus
// first span start) and the fraction of it accounted for by self time
// — a sanity check that the instrumentation covers the run.
//
// -by-trace switches to the lineage view: spans and flight-recorder
// events (the {"record":"flight"} lines a -flight-dump file holds) are
// grouped by the trace id minted per batch job, one row per trace,
// with attempt counts, retries, and anomaly kinds (panic, degraded,
// breaker_open, fault, slow_job). Several input files may be given —
// typically the -trace file plus the -flight-dump file of one run —
// and repeated dump blocks of the same ring are de-duplicated.
// Pre-lineage traces (no trace_id fields) report "no trace ids found"
// instead of failing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// span mirrors the telemetry spanRecord schema; attrs are ignored.
// Record is set on non-span NDJSON lines (runtime_sample and friends)
// that share the trace stream and are skipped without complaint.
type span struct {
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	G       uint64 `json:"g"`
	Record  string `json:"record"`
	TraceID string `json:"trace_id"`
	Attempt int32  `json:"attempt"`
}

// flightEvent mirrors the flight-recorder dump schema (one
// {"record":"flight"} line). The same ring may be dumped several times
// into one -flight-dump file; identical lines are de-duplicated before
// the lineage rollup.
type flightEvent struct {
	Kind    string `json:"kind"`
	TimeNS  int64  `json:"t_ns"`
	TraceID string `json:"trace_id"`
	Attempt int32  `json:"attempt"`
	Index   int64  `json:"index"`
	DurNS   int64  `json:"dur_ns"`
	Code    int64  `json:"code"`
	Label   string `json:"label"`
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 0, "show only the N phases with the most self time (0 = all)")
	rollup := fs.Bool("rollup", false, "print the parent/child rollup tree instead of the flat table")
	byG := fs.Bool("by-goroutine", false, "print the per-goroutine rollup (one row per worker goroutine)")
	byTrace := fs.Bool("by-trace", false, "group spans and flight events by job trace id (lineage view)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: tracestat [-top N] [-rollup] [-by-trace] <trace.ndjson | -> [more files...]")
	}
	var (
		spans   []span
		flights []flightEvent
		skipped int
	)
	for _, name := range fs.Args() {
		in := stdin
		if name != "-" {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			sp, fl, sk, err := readStream(f)
			f.Close()
			if err != nil {
				return err
			}
			spans, flights, skipped = append(spans, sp...), append(flights, fl...), skipped+sk
			continue
		}
		sp, fl, sk, err := readStream(in)
		if err != nil {
			return err
		}
		spans, flights, skipped = append(spans, sp...), append(flights, fl...), skipped+sk
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "tracestat: skipped %d malformed line(s)\n", skipped)
	}
	if *byTrace {
		return writeByTrace(stdout, spans, flights)
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans in trace")
	}
	t := analyze(spans)
	switch {
	case *rollup:
		t.writeRollup(stdout)
	case *byG:
		t.writeByGoroutine(stdout)
	default:
		t.writeTable(stdout, *top)
	}
	return nil
}

// readSpans keeps the original span-only view of a stream; tests and
// the phase table use it.
func readSpans(in io.Reader) ([]span, int, error) {
	spans, _, skipped, err := readStream(in)
	return spans, skipped, err
}

// readStream splits one NDJSON stream into spans and flight-recorder
// events. Other record kinds (runtime_sample, flight_dump headers,
// health events) sharing the stream are skipped without complaint.
func readStream(in io.Reader) ([]span, []flightEvent, int, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		spans   []span
		flights []flightEvent
	)
	skipped := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			skipped++
			continue
		}
		if s.Record == "flight" {
			var fl flightEvent
			if err := json.Unmarshal([]byte(line), &fl); err != nil || fl.Kind == "" {
				skipped++
				continue
			}
			flights = append(flights, fl)
			continue
		}
		if s.Record != "" {
			// A non-span record (runtime_sample, flight_dump header etc.)
			// sharing the trace stream — expected, not malformed.
			continue
		}
		if s.Span == 0 || s.Name == "" {
			skipped++
			continue
		}
		spans = append(spans, s)
	}
	return spans, flights, skipped, sc.Err()
}

// trace is the analyzed form: per-span self times plus the wall span.
type trace struct {
	spans   []span
	self    map[uint64]int64 // span id -> self ns (dur minus child durs, clamped >= 0)
	byName  map[string]*phase
	wallNS  int64
	roots   []uint64
	childOf map[uint64][]uint64
}

type phase struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
	durs    []int64
}

func analyze(spans []span) *trace {
	t := &trace{
		spans:   spans,
		self:    make(map[uint64]int64, len(spans)),
		byName:  make(map[string]*phase),
		childOf: make(map[uint64][]uint64),
	}
	ids := make(map[uint64]*span, len(spans))
	for i := range spans {
		ids[spans[i].Span] = &spans[i]
	}
	minStart, maxEnd := spans[0].StartNS, spans[0].StartNS+spans[0].DurNS
	childIvs := make(map[uint64][]interval, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.StartNS < minStart {
			minStart = s.StartNS
		}
		if end := s.StartNS + s.DurNS; end > maxEnd {
			maxEnd = end
		}
		// An orphan parent id (span not present in the file — e.g. a
		// truncated trace) makes the span a root rather than losing it.
		if _, ok := ids[s.Parent]; s.Parent != 0 && ok {
			childIvs[s.Parent] = append(childIvs[s.Parent], interval{s.StartNS, s.StartNS + s.DurNS})
			t.childOf[s.Parent] = append(t.childOf[s.Parent], s.Span)
		} else {
			t.roots = append(t.roots, s.Span)
		}
	}
	t.wallNS = maxEnd - minStart
	for i := range spans {
		s := &spans[i]
		// Self time is the parent's duration minus the UNION of its
		// children's intervals, not their sum: a batch.run span whose
		// children execute concurrently on eight workers would otherwise
		// see Σchild ≈ 8×dur and clamp to zero — or worse, go negative.
		// Intervals are clamped to the parent, so a child that outlives
		// its parent (emit races) cannot push self below zero either.
		self := s.DurNS - unionLen(childIvs[s.Span], s.StartNS, s.StartNS+s.DurNS)
		if self < 0 {
			self = 0
		}
		t.self[s.Span] = self
		p := t.byName[s.Name]
		if p == nil {
			p = &phase{name: s.Name}
			t.byName[s.Name] = p
		}
		p.count++
		p.totalNS += s.DurNS
		p.selfNS += self
		p.durs = append(p.durs, s.DurNS)
	}
	return t
}

// interval is one child occupancy window [start, end).
type interval struct {
	start, end int64
}

// unionLen returns the total length of the union of ivs clamped to
// [lo, hi]. It mutates ivs (sorts in place).
func unionLen(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curLo, curHi := int64(0), int64(0)
	started := false
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if !started {
			curLo, curHi, started = s, e, true
			continue
		}
		if s <= curHi {
			if e > curHi {
				curHi = e
			}
			continue
		}
		total += curHi - curLo
		curLo, curHi = s, e
	}
	if started {
		total += curHi - curLo
	}
	return total
}

func (t *trace) selfAccountedNS() int64 {
	var sum int64
	for _, s := range t.self {
		sum += s
	}
	return sum
}

// pct returns the nearest-rank percentile of sorted ns durations.
func pct(durs []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(durs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(durs) {
		i = len(durs) - 1
	}
	return durs[i]
}

func dur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func (t *trace) writeTable(w io.Writer, top int) {
	phases := make([]*phase, 0, len(t.byName))
	for _, p := range t.byName {
		sort.Slice(p.durs, func(i, j int) bool { return p.durs[i] < p.durs[j] })
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].selfNS > phases[j].selfNS })
	if top > 0 && top < len(phases) {
		phases = phases[:top]
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tCOUNT\tTOTAL\tSELF\tP50\tP95")
	for _, p := range phases {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
			p.name, p.count, dur(p.totalNS), dur(p.selfNS),
			dur(pct(p.durs, 0.50)), dur(pct(p.durs, 0.95)))
	}
	tw.Flush()
	acc := 0.0
	if t.wallNS > 0 {
		acc = 100 * float64(t.selfAccountedNS()) / float64(t.wallNS)
	}
	fmt.Fprintf(w, "wall %s, %d spans, self time accounts for %.1f%% of wall\n",
		dur(t.wallNS), len(t.spans), acc)
}

// writeByGoroutine prints one row per goroutine: span count, total and
// self time, the goroutine's active window (first start to last end)
// and the busy fraction of that window. On a worker-pool trace each
// worker goroutine becomes one row, so an idle or starved worker is
// immediately visible. Spans from traces that predate the g field
// (g absent = 0) fold into a single "g 0" row.
func (t *trace) writeByGoroutine(w io.Writer) {
	type gstat struct {
		g        uint64
		count    int
		totalNS  int64
		selfNS   int64
		minStart int64
		maxEnd   int64
	}
	byG := make(map[uint64]*gstat)
	for i := range t.spans {
		s := &t.spans[i]
		gs := byG[s.G]
		if gs == nil {
			gs = &gstat{g: s.G, minStart: s.StartNS, maxEnd: s.StartNS + s.DurNS}
			byG[s.G] = gs
		}
		gs.count++
		gs.totalNS += s.DurNS
		gs.selfNS += t.self[s.Span]
		if s.StartNS < gs.minStart {
			gs.minStart = s.StartNS
		}
		if end := s.StartNS + s.DurNS; end > gs.maxEnd {
			gs.maxEnd = end
		}
	}
	rows := make([]*gstat, 0, len(byG))
	for _, gs := range byG {
		rows = append(rows, gs)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfNS > rows[j].selfNS })
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "GOROUTINE\tSPANS\tTOTAL\tSELF\tWINDOW\tBUSY%")
	for _, gs := range rows {
		window := gs.maxEnd - gs.minStart
		busy := 0.0
		if window > 0 {
			busy = 100 * float64(gs.selfNS) / float64(window)
		}
		fmt.Fprintf(tw, "g%d\t%d\t%s\t%s\t%s\t%.1f\n",
			gs.g, gs.count, dur(gs.totalNS), dur(gs.selfNS), dur(window), busy)
	}
	tw.Flush()
	fmt.Fprintf(w, "wall %s, %d goroutines, %d spans\n", dur(t.wallNS), len(rows), len(t.spans))
}

// writeRollup prints the span forest aggregated by name path: all
// spans sharing the same chain of ancestor names fold into one row.
func (t *trace) writeRollup(w io.Writer) {
	type node struct {
		count    int
		totalNS  int64
		children map[string]*node
		order    []string
	}
	root := &node{children: make(map[string]*node)}
	ids := make(map[uint64]*span, len(t.spans))
	for i := range t.spans {
		ids[t.spans[i].Span] = &t.spans[i]
	}
	var add func(n *node, id uint64)
	add = func(n *node, id uint64) {
		s := ids[id]
		c := n.children[s.Name]
		if c == nil {
			c = &node{children: make(map[string]*node)}
			n.children[s.Name] = c
			n.order = append(n.order, s.Name)
		}
		c.count++
		c.totalNS += s.DurNS
		for _, kid := range t.childOf[id] {
			add(c, kid)
		}
	}
	// Roots in start order for a stable, chronological tree.
	sort.Slice(t.roots, func(i, j int) bool {
		return ids[t.roots[i]].StartNS < ids[t.roots[j]].StartNS
	})
	for _, r := range t.roots {
		add(root, r)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tCOUNT\tTOTAL")
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		for _, name := range n.order {
			c := n.children[name]
			fmt.Fprintf(tw, "%s%s\t%d\t%s\n",
				strings.Repeat("  ", depth), name, c.count, dur(c.totalNS))
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	tw.Flush()
}

// traceStat is the lineage rollup of everything observed for one
// trace id across spans and flight events.
type traceStat struct {
	id       string
	job      string // job id, from job_done/degraded/retry flight labels
	spans    int
	attempts int32 // highest attempt number observed (1 = no retries)
	retries  int
	totalNS  int64 // summed span durations attributed to the trace
	kinds    map[string]int
	firstNS  int64
}

// anomalyKinds are the flight kinds worth surfacing per trace, in
// display order; span/job_done are the normal-path record kinds.
var anomalyKinds = []string{"retry", "panic", "degraded", "breaker_open", "fault", "slow_job"}

// writeByTrace prints one row per trace id: the full lineage of a job
// across its attempts, stitched together from span records and
// flight-recorder events. Inputs that predate lineage propagation
// carry no trace ids; that reports gracefully instead of failing.
func writeByTrace(w io.Writer, spans []span, flights []flightEvent) error {
	stats := make(map[string]*traceStat)
	get := func(id string, when int64) *traceStat {
		ts := stats[id]
		if ts == nil {
			ts = &traceStat{id: id, kinds: make(map[string]int), firstNS: when}
			stats[id] = ts
		}
		if when != 0 && (ts.firstNS == 0 || when < ts.firstNS) {
			ts.firstNS = when
		}
		return ts
	}
	for i := range spans {
		s := &spans[i]
		if s.TraceID == "" {
			continue
		}
		ts := get(s.TraceID, s.StartNS)
		ts.spans++
		ts.totalNS += s.DurNS
		if s.Attempt > ts.attempts {
			ts.attempts = s.Attempt
		}
	}
	// Dumps append: the same ring record can appear under several dump
	// headers. De-duplicate by full identity before counting.
	seen := make(map[flightEvent]bool, len(flights))
	dups := 0
	for _, fl := range flights {
		if seen[fl] {
			dups++
			continue
		}
		seen[fl] = true
		if fl.TraceID == "" {
			continue
		}
		ts := get(fl.TraceID, fl.TimeNS)
		ts.kinds[fl.Kind]++
		if fl.Kind == "retry" {
			ts.retries++
		}
		if fl.Attempt > ts.attempts {
			ts.attempts = fl.Attempt
		}
		if ts.job == "" && fl.Label != "" {
			switch fl.Kind {
			case "job_done", "degraded", "retry":
				ts.job = fl.Label
			}
		}
	}
	if len(stats) == 0 {
		fmt.Fprintln(w, "no trace ids found (inputs predate lineage propagation, or no jobs ran)")
		return nil
	}
	rows := make([]*traceStat, 0, len(stats))
	for _, ts := range stats {
		if ts.attempts == 0 {
			ts.attempts = 1
		}
		rows = append(rows, ts)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].firstNS != rows[j].firstNS {
			return rows[i].firstNS < rows[j].firstNS
		}
		return rows[i].id < rows[j].id
	})
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "TRACE\tJOB\tSPANS\tATTEMPTS\tRETRIES\tTOTAL\tEVENTS")
	for _, ts := range rows {
		var evs []string
		for _, k := range anomalyKinds {
			if n := ts.kinds[k]; n > 0 {
				if k == "retry" {
					continue // own column
				}
				evs = append(evs, fmt.Sprintf("%s×%d", k, n))
			}
		}
		events := strings.Join(evs, ",")
		if events == "" {
			events = "-"
		}
		job := ts.job
		if job == "" {
			job = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\n",
			ts.id, job, ts.spans, ts.attempts, ts.retries, dur(ts.totalNS), events)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d traces, %d spans, %d flight events", len(stats), len(spans), len(seen))
	if dups > 0 {
		fmt.Fprintf(w, " (%d duplicate dump lines folded)", dups)
	}
	fmt.Fprintln(w)
	return nil
}
