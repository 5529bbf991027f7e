package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"elmore/internal/faultinject"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Permanent},
		{fmt.Errorf("no node named %q", "x"), Permanent},
		{context.Canceled, Canceled},
		{fmt.Errorf("job: %w", context.Canceled), Canceled},
		{context.DeadlineExceeded, Transient},
		{fmt.Errorf("attempt: %w", context.DeadlineExceeded), Transient},
		{&faultinject.Error{Point: "sim.step", Visit: 3}, Transient},
		{fmt.Errorf("wrap: %w", &faultinject.Error{Point: "p"}), Transient},
		{&PanicError{Value: "kaboom"}, Panicked},
		{fmt.Errorf("job 4: %w", &PanicError{Value: 9}), Panicked},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDegradable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&faultinject.Error{Point: "sim.step"}, true},
		{context.DeadlineExceeded, true},
		{&PanicError{Value: "x"}, true},
		{&OpenError{Fingerprint: 7, Failures: 8}, true},
		{fmt.Errorf("open: %w", &OpenError{}), true},
		{context.Canceled, false},
		{fmt.Errorf("bad spec"), false},
	}
	for _, c := range cases {
		if got := Degradable(c.err); got != c.want {
			t.Errorf("Degradable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestPolicyAttempts(t *testing.T) {
	var nilPolicy *Policy
	if nilPolicy.Attempts() != 1 {
		t.Errorf("nil policy attempts = %d", nilPolicy.Attempts())
	}
	if (&Policy{}).Attempts() != 1 {
		t.Errorf("zero policy attempts = %d", (&Policy{}).Attempts())
	}
	if (&Policy{MaxAttempts: 4}).Attempts() != 4 {
		t.Errorf("explicit attempts lost")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := &Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterStaysInRange(t *testing.T) {
	p := &Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5}
	varied := false
	for i := 0; i < 200; i++ {
		d := p.Backoff(1)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms, 100ms]", d)
		}
		if d != 100*time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Errorf("jitter never varied the delay")
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	p := &Policy{BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Sleep(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep returned %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("Sleep did not return promptly on cancel")
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Hour}
	const fp = uint64(0xabc)
	for i := 0; i < 2; i++ {
		if err := b.Allow(fp); err != nil {
			t.Fatalf("closed circuit rejected attempt %d: %v", i, err)
		}
		b.Failure(fp)
	}
	if b.Open(fp) {
		t.Fatalf("opened below threshold")
	}
	b.Failure(fp)
	if !b.Open(fp) {
		t.Fatalf("did not open at threshold")
	}
	err := b.Allow(fp)
	var oe *OpenError
	if !errors.As(err, &oe) || oe.Fingerprint != fp || oe.Failures != 3 {
		t.Fatalf("open circuit returned %v", err)
	}
	// A different fingerprint is unaffected.
	if err := b.Allow(fp + 1); err != nil {
		t.Fatalf("unrelated circuit rejected: %v", err)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := &Breaker{Threshold: 2}
	const fp = uint64(1)
	b.Failure(fp)
	b.Success(fp)
	b.Failure(fp)
	if b.Open(fp) {
		t.Fatalf("non-consecutive failures opened the circuit")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 1, Cooldown: 10 * time.Second}
	b.now = func() time.Time { return now }
	const fp = uint64(2)
	b.Failure(fp)
	if err := b.Allow(fp); err == nil {
		t.Fatalf("open circuit allowed an attempt before cooldown")
	}
	now = now.Add(11 * time.Second)
	if err := b.Allow(fp); err != nil {
		t.Fatalf("cooldown elapsed but probe rejected: %v", err)
	}
	// While the probe is in flight other callers stay rejected.
	if err := b.Allow(fp); err == nil {
		t.Fatalf("second caller admitted during half-open probe")
	}
	// Failed probe re-opens immediately; successful probe closes.
	b.Failure(fp)
	if !b.Open(fp) {
		t.Fatalf("failed probe did not re-open")
	}
	now = now.Add(11 * time.Second)
	if err := b.Allow(fp); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success(fp)
	if b.Open(fp) {
		t.Fatalf("successful probe did not close the circuit")
	}
	if err := b.Allow(fp); err != nil {
		t.Fatalf("closed circuit rejected: %v", err)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := &Breaker{Threshold: 4, Cooldown: time.Millisecond}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fp := uint64(w % 3)
			for i := 0; i < 500; i++ {
				if b.Allow(fp) == nil {
					if i%2 == 0 {
						b.Failure(fp)
					} else {
						b.Success(fp)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBreakerForgetsSucceedingCircuits: a long-lived breaker (elmored
// shares one across requests) must not grow with every net it sees.
// Only circuits with a failure since their last success hold an entry.
func TestBreakerForgetsSucceedingCircuits(t *testing.T) {
	b := &Breaker{Threshold: 3}
	for fp := uint64(0); fp < 10000; fp++ {
		if err := b.Allow(fp); err != nil {
			t.Fatalf("fresh circuit %d rejected: %v", fp, err)
		}
		b.Success(fp)
	}
	if n := len(b.m); n != 0 {
		t.Fatalf("breaker holds %d entries after 10000 succeeding circuits, want 0", n)
	}
	b.Failure(7)
	if n := len(b.m); n != 1 {
		t.Fatalf("breaker holds %d entries after one failure, want 1", n)
	}
	b.Success(7)
	if n := len(b.m); n != 0 {
		t.Fatalf("success kept the failed circuit's entry: %d entries", n)
	}
}
