package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elmore/internal/telemetry"
)

func TestReporterSummaryRecord(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	var summary, slow bytes.Buffer
	good := chainNet(t, 10)
	e := &Engine{
		Workers: 4,
		Trees:   heldTrees(t, good),
		Report: &Reporter{
			Summary:       &summary,
			Slow:          &slow,
			SlowThreshold: time.Nanosecond, // everything is slow
		},
	}
	jobs := []Job{
		netJob("a", good),
		netJob("b", good), // cache hit: same tree-cache entry as a
		{ID: "dead", Err: fmt.Errorf("spec rejected")},
	}
	results := e.Run(context.Background(), jobs)

	var rec summaryRecord
	if err := json.Unmarshal(summary.Bytes(), &rec); err != nil {
		t.Fatalf("summary is not one JSON record: %v\n%s", err, summary.String())
	}
	if rec.Record != "batch_summary" || rec.Jobs != 3 || rec.Errors != 1 {
		t.Errorf("summary = %+v", rec)
	}
	if rec.ErrorsByKind["failed"] != 1 {
		t.Errorf("errors_by_kind = %v", rec.ErrorsByKind)
	}
	if rec.CacheHits != 1 || rec.CacheHitRate == 0 {
		t.Errorf("cache stats = %d / %v (results: %+v)", rec.CacheHits, rec.CacheHitRate, results)
	}
	if rec.SlowJobs != 3 {
		t.Errorf("slow_jobs = %d, want 3", rec.SlowJobs)
	}
	if !(rec.LatencyMS.P50 <= rec.LatencyMS.P95 && rec.LatencyMS.P95 <= rec.LatencyMS.Max) {
		t.Errorf("latency percentiles unordered: %+v", rec.LatencyMS)
	}

	// Every slow line is valid NDJSON with captured spans (no ambient
	// tracer, so the per-job memory tracer recorded batch.job itself).
	sc := bufio.NewScanner(&slow)
	n := 0
	for sc.Scan() {
		var sr slowRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("bad slow line: %v: %s", err, sc.Text())
		}
		if sr.Record != "slow_job" {
			t.Errorf("record = %q", sr.Record)
		}
		if len(sr.Spans) == 0 {
			t.Errorf("slow job %d has no captured spans", sr.Index)
		}
		n++
	}
	if n != 3 {
		t.Errorf("slow lines = %d, want 3", n)
	}
}

func TestReporterProgressLines(t *testing.T) {
	var progress syncBuffer
	e := &Engine{
		Workers: 2,
		Report: &Reporter{
			Progress: &progress,
			Interval: time.Millisecond,
		},
	}
	good := chainNet(t, 50)
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("j%d", i), good)
	}
	e.Run(context.Background(), jobs)
	out := progress.String()
	// At minimum the final line from finish() is present and complete.
	if !strings.Contains(out, "40/40 done, 0 errors") {
		t.Errorf("missing final progress line:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range lines {
		if !strings.HasPrefix(l, "batch: ") || !strings.Contains(l, "queue ") {
			t.Errorf("malformed progress line %q", l)
		}
	}
}

func TestReporterAmbientTracerSkipsSpanCapture(t *testing.T) {
	var slow, trace bytes.Buffer
	e := &Engine{
		Workers: 1,
		Report:  &Reporter{Slow: &slow, SlowThreshold: time.Nanosecond},
	}
	ctx := telemetry.WithTracer(context.Background(),
		telemetry.NewTracer(telemetry.WriterSink{W: &trace}))
	e.Run(ctx, []Job{netJob("a", chainNet(t, 5))})
	sc := bufio.NewScanner(&slow)
	for sc.Scan() {
		var sr slowRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Spans) != 0 {
			t.Errorf("spans double-captured alongside ambient tracer: %d", len(sr.Spans))
		}
	}
	if trace.Len() == 0 {
		t.Error("ambient tracer recorded nothing")
	}
}

// Regression for the queue-depth race: the gauge used to be published
// with Set(pending.Add(-1)), letting two workers interleave and write
// an older depth over a newer one (or drive the gauge negative across
// overlapping runs). Add-based updates make it monotone non-increasing
// within a run and exactly zero after all runs finish. Run under
// -race, and with concurrent Runs to exercise composition.
func TestQueueDepthGaugeConsistent(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	good := chainNet(t, 5)
	const runs = 4
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]Job, 30)
			for i := range jobs {
				jobs[i] = netJob(fmt.Sprintf("j%d", i), good)
			}
			e := &Engine{Workers: 4}
			e.RunFunc(context.Background(), jobs, func(r Result) {
				if d := reg.Gauge("batch.queue_depth").Value(); d < 0 {
					t.Errorf("queue depth went negative: %v", d)
				}
			})
		}()
	}
	wg.Wait()
	if d := reg.Gauge("batch.queue_depth").Value(); d != 0 {
		t.Errorf("queue depth after all runs = %v, want 0", d)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress ticker
// goroutine writes while the test goroutine reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
