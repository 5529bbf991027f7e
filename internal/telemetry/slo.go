package telemetry

// Declarative latency objectives ("-slo p99=50ms,p50=2ms") with
// good/bad-event accounting and burn-rate gauges — the assertion
// substrate serve mode and cmd/loadgen will drive. An event is good
// for an objective when the job succeeded and finished within the
// objective's target; errors count against every objective. The burn
// rate is the classic SRE ratio:
//
//	burn = observed_bad_fraction / error_budget
//
// where error_budget = 1 - quantile (a p99 objective tolerates 1% bad
// events). burn <= 1 means the objective holds; burn = 3 means the
// budget is being consumed three times too fast.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SLO is one latency objective: Quantile of events must finish within
// Target.
type SLO struct {
	Name     string        // canonical spelling, e.g. "p99" or "p99.9"
	Quantile float64       // e.g. 0.99
	Target   time.Duration // e.g. 50ms
}

// ParseSLOs parses a comma-separated objective list of the form
// "p99=50ms,p50=2ms". Quantile spellings are pNN or pNN.N with
// 0 < NN < 100. Duplicate quantiles are an error; the result is
// sorted by quantile ascending.
func ParseSLOs(spec string) ([]SLO, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var slos []SLO
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, target, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("slo %q: want pNN=duration (e.g. p99=50ms)", part)
		}
		name = strings.TrimSpace(name)
		if len(name) < 2 || (name[0] != 'p' && name[0] != 'P') {
			return nil, fmt.Errorf("slo %q: quantile must start with 'p'", part)
		}
		pct, err := strconv.ParseFloat(name[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("slo %q: quantile must be in (0, 100)", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(target))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("slo %q: bad target duration %q", part, target)
		}
		canon := "p" + strings.TrimRight(strings.TrimRight(
			strconv.FormatFloat(pct, 'f', 3, 64), "0"), ".")
		if seen[canon] {
			return nil, fmt.Errorf("slo %q: duplicate quantile %s", spec, canon)
		}
		seen[canon] = true
		slos = append(slos, SLO{Name: canon, Quantile: pct / 100, Target: d})
	}
	sort.Slice(slos, func(i, j int) bool { return slos[i].Quantile < slos[j].Quantile })
	return slos, nil
}

// SLOTracker counts good/bad events per objective. Like the sketch it
// feeds alongside, it is single-goroutine (the Reporter's emission
// goroutine); Publish pushes the counts into the process metrics
// registry, which is what makes them scrapable concurrently.
type SLOTracker struct {
	SLOs []SLO
	// Prefix names the metric family Publish writes, e.g. "serve" for
	// "serve.slo.p99.burn_rate"; empty means "batch" (the historical
	// family, kept so existing dashboards survive).
	Prefix string
	good   []int64
	bad    []int64
}

// NewSLOTracker returns a tracker for the given objectives (nil when
// slos is empty — a nil tracker is a valid no-op).
func NewSLOTracker(slos []SLO) *SLOTracker {
	if len(slos) == 0 {
		return nil
	}
	return &SLOTracker{
		SLOs: slos,
		good: make([]int64, len(slos)),
		bad:  make([]int64, len(slos)),
	}
}

// Observe scores one event against every objective. Failed events are
// bad for all objectives regardless of latency.
func (t *SLOTracker) Observe(d time.Duration, failed bool) {
	if t == nil {
		return
	}
	for i, s := range t.SLOs {
		if failed || d > s.Target {
			t.bad[i]++
		} else {
			t.good[i]++
		}
	}
}

// Fail rescores one event that Observe counted as successful, with
// latency d, as failed: bad for every objective.
func (t *SLOTracker) Fail(d time.Duration) {
	if t == nil {
		return
	}
	for i, s := range t.SLOs {
		if d <= s.Target {
			t.good[i]--
			t.bad[i]++
		}
	}
}

// Good returns the good-event count for objective i.
func (t *SLOTracker) Good(i int) int64 {
	if t == nil {
		return 0
	}
	return t.good[i]
}

// Bad returns the bad-event count for objective i.
func (t *SLOTracker) Bad(i int) int64 {
	if t == nil {
		return 0
	}
	return t.bad[i]
}

// BurnRate returns observed_bad_fraction / (1 - quantile) for
// objective i; 0 when no events have been observed.
func (t *SLOTracker) BurnRate(i int) float64 {
	if t == nil {
		return 0
	}
	total := t.good[i] + t.bad[i]
	if total == 0 {
		return 0
	}
	badFrac := float64(t.bad[i]) / float64(total)
	return badFrac / (1 - t.SLOs[i].Quantile)
}

// sloMetricName builds "batch.slo.p99.burn_rate"-style names under the
// tracker's Prefix. Dots in the quantile spelling (p99.9) survive here
// and are sanitized by PromName on exposition.
func (t *SLOTracker) sloMetricName(name, field string) string {
	prefix := t.Prefix
	if prefix == "" {
		prefix = "batch"
	}
	return prefix + ".slo." + name + "." + field
}

// Publish pushes per-objective good/bad counts and burn-rate gauges
// into the default metrics registry (no-op when metrics are disabled),
// registering HELP text so the Prometheus exposition is
// self-describing.
func (t *SLOTracker) Publish() {
	if t == nil {
		return
	}
	r := Default()
	if r == nil {
		return
	}
	for i, s := range t.SLOs {
		good, bad, burn := t.sloMetricName(s.Name, "good"), t.sloMetricName(s.Name, "bad"), t.sloMetricName(s.Name, "burn_rate")
		r.SetHelp(good, fmt.Sprintf("Jobs that met the %s<=%v latency objective.", s.Name, s.Target))
		r.SetHelp(bad, fmt.Sprintf("Jobs that missed the %s<=%v latency objective (errors count as missed).", s.Name, s.Target))
		r.SetHelp(burn, fmt.Sprintf("Error-budget burn rate for %s<=%v: bad fraction / %.4g (1 = budget exactly consumed).", s.Name, s.Target, 1-s.Quantile))
		r.Gauge(good).Set(float64(t.good[i]))
		r.Gauge(bad).Set(float64(t.bad[i]))
		r.Gauge(burn).Set(t.BurnRate(i))
	}
}
