package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("a.count") != c {
		t.Error("counter lookup is not stable")
	}

	g := r.Gauge("a.gauge")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("a.hist", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 103.5 {
		t.Errorf("hist sum = %g, want 103.5", h.Sum())
	}
	// Buckets: (-inf,1] gets 0.5 and 1; (1,10] gets 2; (10,inf) gets 100.
	want := []int64{2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	h.Time()()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}

	var sp *Span
	sp.AttrInt("k", 1).AttrFloat("f", 2).AttrString("s", "v")
	sp.End() // must not panic

	var tr *Tracer
	if tr.Err() != nil {
		t.Error("nil tracer Err must be nil")
	}
}

func TestDefaultRegistrySwap(t *testing.T) {
	r := NewRegistry()
	prev := SetDefault(r)
	defer SetDefault(prev)
	C("swap.count").Inc()
	G("swap.gauge").Set(2)
	H("swap.hist").Observe(0.1)
	if r.Counter("swap.count").Value() != 1 {
		t.Error("C did not reach the installed default registry")
	}
	if got := SetDefault(nil); got != r {
		t.Errorf("SetDefault returned %p, want %p", got, r)
	}
	C("swap.count").Inc() // disabled: must be a no-op
	if r.Counter("swap.count").Value() != 1 {
		t.Error("disabled C leaked into the old registry")
	}
}

// TestConcurrentWriters exercises the registry and a tracer from many
// goroutines at once; run with -race (the CI check target does).
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	prev := SetDefault(r)
	defer SetDefault(prev)
	var sb lockedBuilder
	ctx := WithTracer(context.Background(), NewTracer(WriterSink{W: &sb}))

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				C("conc.count").Inc()
				G("conc.gauge").Set(float64(i))
				H("conc.hist").Observe(float64(i) * 1e-5)
				_, sp := Start(ctx, "conc.span")
				sp.AttrInt("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc.count").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("conc.hist", nil).Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != workers*iters {
		t.Errorf("trace lines = %d, want %d", lines, workers*iters)
	}
}

// lockedBuilder is a goroutine-safe strings.Builder for test sinks.
type lockedBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestWriteTextSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.gauge").Set(0.5)
	r.Histogram("c.hist", []float64{1}).Observe(2)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter b.count 3\ngauge a.gauge 0.5\nhistogram c.hist count=1 sum=2 le1=0 inf=1\n"
	if sb.String() != want {
		t.Errorf("snapshot:\n%q\nwant:\n%q", sb.String(), want)
	}
}
