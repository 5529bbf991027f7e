package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elmore/internal/telemetry"
)

// TestEngineMintsAndContinuesTrace: every job leaves the engine with a
// valid lineage — a fresh mint by default, or the exact trace a
// coordinator stamped on the Job (the multi-process hand-off path).
func TestEngineMintsAndContinuesTrace(t *testing.T) {
	good := chainNet(t, 5)
	preset := telemetry.MintTrace()
	jobs := []Job{
		netJob("fresh-a", good),
		netJob("fresh-b", good),
		{ID: "handed-off", Net: &NetJob{Tree: good}, Trace: preset},
	}
	e := &Engine{Workers: 2}
	results := e.Run(context.Background(), jobs)

	seen := make(map[string]bool)
	for _, r := range results {
		if !r.Trace.Valid() {
			t.Fatalf("job %q finished without a trace", r.ID)
		}
		id := r.Trace.TraceID()
		if seen[id] {
			t.Errorf("trace %s reused across jobs", id)
		}
		seen[id] = true
		if r.ID == "handed-off" && r.Trace != preset {
			t.Errorf("preset trace not continued: got %s, want %s",
				id, preset.TraceID())
		}
	}
}

// TestSpecLineageEndToEnd runs the full NDJSON pipeline with a journal
// and asserts the lineage contract of PR 9: every result line carries a
// well-formed trace_id, a spec's trace_id is continued rather than
// re-minted, journal start records carry the same trace their result
// line does, and done records stay trace-free.
func TestSpecLineageEndToEnd(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	const handoff = "00000000deadbeef00000000cafef00d"
	stream := strings.Join([]string{
		fmt.Sprintf(`{"id":"n1","net":%q,"sinks":["z"]}`, netPath),
		fmt.Sprintf(`{"id":"n2","net":%q,"trace_id":%q}`, netPath, handoff),
		`{"id":"bad","net":"does-not-exist.sp"}`,
	}, "\n")

	jpath := filepath.Join(t.TempDir(), "run.journal")
	jr, rp, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	eng := &Engine{Workers: 2, Cache: NewCache()}
	if _, err := RunSpecsOpts(context.Background(), eng, strings.NewReader(stream), &out,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr, Replay: rp}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	traceByID := make(map[string]string) // job id -> trace id
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var rec ResultRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("result line: %v: %s", err, sc.Text())
		}
		if _, ok := telemetry.ParseTraceID(rec.TraceID); !ok {
			t.Fatalf("job %q has malformed trace_id %q", rec.ID, rec.TraceID)
		}
		traceByID[rec.ID] = rec.TraceID
	}
	if len(traceByID) != 3 {
		t.Fatalf("got %d result lines, want 3", len(traceByID))
	}
	if traceByID["n2"] != handoff {
		t.Errorf("spec trace_id not continued: result carries %q, want %q",
			traceByID["n2"], handoff)
	}
	if traceByID["n1"] == traceByID["bad"] || traceByID["n1"] == handoff {
		t.Errorf("fresh traces not distinct: %v", traceByID)
	}

	// The journal is the crash-recovery view of the same lineage: each
	// start record names the trace its result line carries, so a
	// post-mortem can tie an in-flight job back to its spans and flight
	// events even when the result never landed.
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	startTraces := make(map[string]string) // job id -> journal trace
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var jrec struct {
			Op    string `json:"op"`
			Key   string `json:"key"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &jrec); err != nil {
			t.Fatalf("journal line: %v: %s", err, line)
		}
		_, id, ok := strings.Cut(jrec.Key, ":")
		if !ok {
			t.Fatalf("journal key %q has no index:id form", jrec.Key)
		}
		switch jrec.Op {
		case "start":
			startTraces[id] = jrec.Trace
		case "done":
			if jrec.Trace != "" {
				t.Errorf("done record for %q carries a trace: %q", id, jrec.Trace)
			}
		}
	}
	for id, want := range traceByID {
		if got := startTraces[id]; got != want {
			t.Errorf("journal start trace for %q = %q, result line says %q",
				id, got, want)
		}
	}
}

// TestResumeContinuesStartTrace: a job in flight when a run died keeps
// its lineage across resume. Its start record's trace is the trace of
// the resumed run's result line, unless the spec names a trace_id;
// a start record without a trace leaves the job a fresh mint.
func TestResumeContinuesStartTrace(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	const handoff = "00000000deadbeef00000000cafef00d"
	stream := strings.Join([]string{
		fmt.Sprintf(`{"id":"k","net":%q,"sinks":["z"]}`, netPath),
		fmt.Sprintf(`{"id":"spec","net":%q,"sinks":["z"],"trace_id":%q}`, netPath, handoff),
		fmt.Sprintf(`{"id":"bare","net":%q,"sinks":["z"]}`, netPath),
	}, "\n")
	crashed := telemetry.MintTrace()
	other := telemetry.MintTrace()
	jpath := filepath.Join(t.TempDir(), "run.journal")
	journal := fmt.Sprintf(`{"op":"start","key":"0:k","trace":%q}
{"op":"start","key":"1:spec","trace":%q}
{"op":"start","key":"2:bare"}
`, crashed.TraceID(), other.TraceID())
	if err := os.WriteFile(jpath, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, rp, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := RunSpecsOpts(context.Background(), &Engine{Workers: 2}, strings.NewReader(stream), &out,
		SpecRunOptions{Lib: lib, Journal: jr, Replay: rp})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Requeued != 3 {
		t.Fatalf("re-queued %d jobs, want 3", st.Requeued)
	}
	traces := make(map[string]string)
	for _, rec := range decodeRecords(t, out.Bytes()) {
		traces[rec.ID] = rec.TraceID
	}
	if traces["k"] != crashed.TraceID() {
		t.Errorf("re-queued job carries trace %q, want its start record's %q", traces["k"], crashed.TraceID())
	}
	if traces["spec"] != handoff {
		t.Errorf("spec trace_id lost to the journal: got %q, want %q", traces["spec"], handoff)
	}
	if _, ok := telemetry.ParseTraceID(traces["bare"]); !ok || traces["bare"] == crashed.TraceID() {
		t.Errorf("job whose start record has no trace got %q, want a fresh mint", traces["bare"])
	}
}

// TestReporterBoundedLatencyMemory is the O(jobs) fix: the reporter
// keeps no per-job latency state — only the fixed-footprint sketch —
// and every summary reads its quantiles from it, with an exact max.
func TestReporterBoundedLatencyMemory(t *testing.T) {
	var summary bytes.Buffer
	rep := &Reporter{Summary: &summary}

	const total = 5000
	var pending atomic.Int64
	rr := rep.begin(total, &pending)
	sketchBytes := rr.sketch.MemoryBytes()
	for i := 0; i < total; i++ {
		rr.observe(Result{Index: i, ID: "j",
			Elapsed: time.Duration(i+1) * time.Microsecond})
	}
	if got := rr.sketch.MemoryBytes(); got != sketchBytes {
		t.Errorf("sketch grew %d -> %d bytes over %d jobs", sketchBytes, got, total)
	}
	rr.finish()

	var rec summaryRecord
	if err := json.Unmarshal(summary.Bytes(), &rec); err != nil {
		t.Fatalf("summary: %v\n%s", err, summary.String())
	}
	if rec.Jobs != total {
		t.Errorf("jobs = %d, want %d", rec.Jobs, total)
	}
	// Ordered, non-trivial quantiles with an exact max (the slowest job
	// was total microseconds).
	if !(0 < rec.LatencyMS.P50 && rec.LatencyMS.P50 <= rec.LatencyMS.P95 &&
		rec.LatencyMS.P95 <= rec.LatencyMS.P99 && rec.LatencyMS.P99 <= rec.LatencyMS.Max) {
		t.Errorf("sketch percentiles unordered: %+v", rec.LatencyMS)
	}
	if want := float64(total) / 1000; rec.LatencyMS.Max != want {
		t.Errorf("max = %v ms, want exact %v", rec.LatencyMS.Max, want)
	}

	// A small run takes the same path.
	summary.Reset()
	rr = rep.begin(16, &pending)
	for i := 0; i < 16; i++ {
		rr.observe(Result{Index: i, Elapsed: time.Duration(i+1) * time.Millisecond})
	}
	rr.finish()
	rec = summaryRecord{}
	if err := json.Unmarshal(summary.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if !(0 < rec.LatencyMS.P50 && rec.LatencyMS.P50 <= rec.LatencyMS.P95 &&
		rec.LatencyMS.P95 <= rec.LatencyMS.P99 && rec.LatencyMS.P99 <= rec.LatencyMS.Max) {
		t.Errorf("small-run percentiles unordered: %+v", rec.LatencyMS)
	}
	if rec.LatencyMS.Max != 16 {
		t.Errorf("small-run max = %v ms, want exact 16", rec.LatencyMS.Max)
	}
}

// TestSummarySLORecords: objectives flow from Reporter.SLOs through a
// real engine run into the summary's slo rows with sane accounting.
func TestSummarySLORecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	slos, err := telemetry.ParseSLOs("p99=10s,p50=1ns")
	if err != nil {
		t.Fatal(err)
	}
	var summary bytes.Buffer
	e := &Engine{
		Workers: 2,
		Report:  &Reporter{Summary: &summary, SLOs: slos},
	}
	good := chainNet(t, 5)
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("j%d", i), good)
	}
	e.Run(context.Background(), jobs)

	var rec summaryRecord
	if err := json.Unmarshal(summary.Bytes(), &rec); err != nil {
		t.Fatalf("summary: %v\n%s", err, summary.String())
	}
	if len(rec.SLO) != 2 {
		t.Fatalf("slo rows = %+v, want 2", rec.SLO)
	}
	// ParseSLOs sorts ascending: p50 first.
	p50, p99 := rec.SLO[0], rec.SLO[1]
	if p50.Name != "p50" || p99.Name != "p99" {
		t.Fatalf("slo order = %q, %q", p50.Name, p99.Name)
	}
	// Every real job takes longer than 1ns and less than 10s.
	if p50.Good != 0 || p50.Bad != 20 || p50.BurnRate != 2 {
		t.Errorf("p50 row = %+v, want all 20 bad, burn 2.0", p50)
	}
	if p99.Good != 20 || p99.Bad != 0 || p99.BurnRate != 0 {
		t.Errorf("p99 row = %+v, want all 20 good", p99)
	}
	// finish() published the gauges on the default registry.
	if g := reg.Gauge("batch.slo.p50.bad").Value(); g != 20 {
		t.Errorf("batch.slo.p50.bad gauge = %v, want 20", g)
	}
}
