package batch

// Concurrency-stress tests. They are meaningful under `go test -race`
// (the CI lane) but also assert behavioral invariants without it:
// single computation per circuit, stable ordering under many workers,
// and panic/cancellation isolation while the pool is saturated.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func TestConcurrentCacheAccess(t *testing.T) {
	cache := NewCache()
	base := chainNet(t, 16)
	var wg sync.WaitGroup
	sets := make([]any, 64)
	for g := 0; g < 64; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every goroutine looks up a clone, so pointer identity
			// cannot accidentally serialize them.
			ms, _, err := cache.Moments(base.Clone(), 3)
			if err != nil {
				t.Error(err)
				return
			}
			sets[g] = ms
		}()
	}
	wg.Wait()
	for g := 1; g < len(sets); g++ {
		if sets[g] != sets[0] {
			t.Fatalf("goroutine %d received a different moment set", g)
		}
	}
	if len(cache.m) != 1 {
		t.Errorf("cache holds %d entries, want 1 (single computation)", len(cache.m))
	}
}

func TestConcurrentBatchWithTelemetry(t *testing.T) {
	// Full instrumentation on: metrics registry installed and a tracer
	// in the context, so the race detector sweeps the telemetry paths
	// the engine exercises (gauge updates, per-job spans).
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(telemetry.WriterSink{W: &syncWriter{w: &buf}})
	ctx := telemetry.WithTracer(context.Background(), tracer)

	tree := chainNet(t, 10)
	var jobs []Job
	for i := 0; i < 200; i++ {
		if i%17 == 0 {
			jobs = append(jobs, Job{ID: fmt.Sprintf("bad%d", i), Net: &NetJob{Load: func() (*rctree.Tree, error) {
				return nil, fmt.Errorf("bad deck")
			}}})
			continue
		}
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), tree))
	}
	res := (&Engine{Workers: 8, Trees: heldTrees(t, tree)}).Run(ctx, jobs)
	var errs int
	for _, r := range res {
		if r.Err != nil {
			errs++
		}
	}
	if want := reg.Counter("batch.jobs").Value(); want != int64(len(jobs)) {
		t.Errorf("batch.jobs = %d, want %d", want, len(jobs))
	}
	if got := reg.Counter("batch.job_errors").Value(); got != int64(errs) {
		t.Errorf("batch.job_errors = %d, errors seen = %d", got, errs)
	}
	if reg.Counter("batch.cache_hits").Value() == 0 {
		t.Errorf("expected cache hits on a repeated net")
	}
	if depth := reg.Gauge("batch.queue_depth").Value(); depth != 0 {
		t.Errorf("queue depth after the batch = %v, want 0", depth)
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"batch.job"`); n != len(jobs) {
		t.Errorf("trace has %d batch.job spans, want %d", n, len(jobs))
	}
}

// syncWriter serializes writes; the Tracer already locks around Emit,
// but the final buffer read races with nothing once Run returns.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestCancellationWhilePoolSaturated(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1024)
	release := make(chan struct{})
	tree := chainNet(t, 8)
	var jobs []Job
	for i := 0; i < 100; i++ {
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Net: &NetJob{Load: func() (*rctree.Tree, error) {
			started <- struct{}{}
			<-release
			return tree, nil
		}}})
	}
	var canceled atomic.Bool
	go func() {
		// Wait for the pool to saturate, then cancel and release.
		for i := 0; i < 4; i++ {
			<-started
		}
		cancel()
		canceled.Store(true)
		close(release)
	}()
	res := (&Engine{Workers: 4}).Run(ctx, jobs)
	if !canceled.Load() {
		t.Fatalf("test harness never canceled")
	}
	errs := 0
	for _, r := range res {
		if r.Err != nil {
			errs++
		}
	}
	// Everything queued behind the cancellation must fail soft with the
	// context error; nothing may be silently dropped.
	if len(res) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(res), len(jobs))
	}
	if errs < len(jobs)-8 {
		t.Errorf("only %d canceled-job errors out of %d", errs, len(jobs))
	}
}

func TestPanicIsolationUnderLoad(t *testing.T) {
	var jobs []Job
	for i := 0; i < 300; i++ {
		if i%7 == 3 {
			jobs = append(jobs, Job{ID: fmt.Sprintf("boom%d", i), Net: &NetJob{Load: func() (*rctree.Tree, error) {
				panic("worker bomb")
			}}})
			continue
		}
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), topo.Random(int64(i), topo.RandomOptions{N: 1 + i%13})))
	}
	res := (&Engine{Workers: 8}).Run(context.Background(), jobs)
	for i, r := range res {
		wantBoom := strings.HasPrefix(jobs[i].ID, "boom")
		if wantBoom && (r.Err == nil || !strings.Contains(r.Err.Error(), "panicked")) {
			t.Fatalf("job %s: panic not isolated: %v", r.ID, r.Err)
		}
		if !wantBoom && r.Err != nil {
			t.Fatalf("job %s poisoned by a sibling panic: %v", r.ID, r.Err)
		}
	}
}
