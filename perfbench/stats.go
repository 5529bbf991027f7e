package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates of the tail rule, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tailRule picks the highest candidate percentile that has at least ten
// samples beyond it among n samples, and returns it with the number of
// samples beyond it. With fewer than twenty samples no percentile
// qualifies and the tail is the maximum (percentile 100, none beyond).
func tailRule(n int) (pct float64, beyond int) {
	for _, p := range tailPercentiles {
		b := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if b >= 10 {
			return p, b
		}
	}
	return 100, 0
}

// latencySummary is a median plus the tail the sample size supports.
type latencySummary struct {
	n       int
	p50     float64
	tailPct float64
	tail    float64
	beyond  int
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct, beyond := tailRule(len(s))
	out := latencySummary{n: len(s), tailPct: pct, beyond: beyond}
	if len(s) > 0 {
		out.p50 = sortedQuantile(s, 0.5)
		out.tail = sortedQuantile(s, pct/100)
	}
	return out
}

// rateStep is one fixed offered rate of the open-loop generator.
type rateStep struct {
	Rate      float64 // offered requests per second
	Seconds   float64 // scheduled duration
	Sent      int     // requests due in the step
	Done      int     // requests answered completely and correctly
	Failed    int     // refused, errored, truncated or interrupted
	Lat       latencySummary
	TailMS    float64 // latency at the benchmark's fixed tail percentile
	Backlog   int     // due but unanswered when the step's schedule ended
	LateP99MS float64 // generator lateness, 99th percentile
	LateMaxMS float64
	Achieved  float64 // answered requests per second of step wall time
}

// behind reports whether the generator itself fell behind its
// schedule, which makes the step invalid: the offered rate was not
// actually offered.
func (s rateStep) behind() bool { return s.LateP99MS > maxLateMS }

// maxLateMS is the generator lateness (99th percentile) beyond which a
// step is invalid.
const maxLateMS = 20

// passes reports whether the step sustained its rate: valid, no
// failures, tail within the latency limit, and a backlog the limit can
// drain (a growing queue leaves more than rate*limit requests behind).
func (s rateStep) passes(limitMS float64) bool {
	return !s.behind() && s.Failed == 0 && s.Done == s.Sent &&
		s.TailMS <= limitMS && float64(s.Backlog) <= s.Rate*limitMS/1000
}

// maxRPS returns the achieved rate of the highest offered rate that
// passes, and false when none does.
func maxRPS(steps []rateStep, limitMS float64) (float64, bool) {
	best, found := 0.0, false
	bestRate := math.Inf(-1)
	for _, s := range steps {
		if s.passes(limitMS) && s.Rate > bestRate {
			best, bestRate, found = s.Achieved, s.Rate, true
		}
	}
	return best, found
}
