package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		beyond int
	}{
		{10000, 99.9, 10},
		{9999, 99.5, 49},
		{1000, 99, 10},
		{999, 98, 19},
		{200, 95, 10},
		{100, 90, 10},
		{20, 50, 10},
		{19, 100, 0},
		{0, 100, 0},
	}
	for _, c := range cases {
		pct, beyond := tailRule(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("tailRule(%d) = p%g with %d beyond, want p%g with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.n != 1000 || s.tailPct != 99 || s.beyond != 10 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.p50-500.5) > 1e-9 || math.Abs(s.tail-990.01) > 1e-9 {
		t.Fatalf("p50 %v p99 %v", s.p50, s.tail)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
}

func TestMaxRPS(t *testing.T) {
	ok := func(rate, achieved float64) rateStep {
		return rateStep{Rate: rate, Sent: 100, Done: 100, TailMS: 10, Achieved: achieved}
	}
	slow := ok(800, 790)
	slow.TailMS = 500
	backlogged := ok(600, 580)
	backlogged.Backlog = 200 // more than 600 req/s * 0.2 s can drain
	late := ok(700, 699)
	late.LateP99MS = maxLateMS + 1
	failed := ok(500, 499)
	failed.Failed, failed.Done = 1, 99

	if got, found := maxRPS([]rateStep{ok(100, 100.2), ok(400, 399.1), slow}, 200); !found || got != 399.1 {
		t.Errorf("tail over the limit: got %v %v, want 399.1", got, found)
	}
	if got, _ := maxRPS([]rateStep{ok(100, 100.2), backlogged}, 200); got != 100.2 {
		t.Errorf("growing backlog: got %v, want 100.2", got)
	}
	if got, _ := maxRPS([]rateStep{ok(100, 100.2), late}, 200); got != 100.2 {
		t.Errorf("generator behind: got %v, want 100.2", got)
	}
	if got, _ := maxRPS([]rateStep{ok(100, 100.2), failed}, 200); got != 100.2 {
		t.Errorf("failed request: got %v, want 100.2", got)
	}
	if _, found := maxRPS([]rateStep{slow}, 200); found {
		t.Error("no passing step must report not found")
	}
	if !late.behind() || ok(1, 1).behind() {
		t.Error("behind() must mark only the late generator")
	}
}
