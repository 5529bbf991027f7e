// Package health is the numerical-health monitor: fail-soft invariant
// checks wired into the hot engines, turning silent numerical
// degradation into countable, inspectable events. The paper's results
// are order relations — mu2 >= 0 and gamma >= 0 (Lemma 2),
// lower <= t50 <= T_D (Theorem 1 / Corollary 1) — so the monitor's job
// is to notice when floating-point reality stops satisfying them: a NaN
// capacitance poisoning the moment recurrences, a simulation waveform
// going non-finite, a bound ordering inverting.
//
// The design mirrors package telemetry: a process-wide default monitor
// reached through an atomic pointer, where nil means "disabled" and the
// disabled path costs a pointer load plus the (already necessary)
// float comparison — zero allocations, safe to leave in hot loops.
//
//	m := health.New(os.Stderr, false)
//	prev := health.SetDefault(m)
//	defer health.SetDefault(prev)
//
// Checks come in two severities. A *note* records a degenerate but
// legal input (a zero-variance node, an unreachable PWL level): it is
// counted and emitted but never fails anything. A *violation* records a
// broken invariant: it is counted, emitted, and — when the monitor is
// strict (the -strict-numerics CLI flag) — returned as an error that
// propagates out of the engine that detected it.
//
// Every event increments the telemetry counters "health.events" and
// "health.<check>"; violations additionally increment
// "health.violations". Events are emitted as NDJSON, one object per
// line, with tree/node context:
//
//	{"check":"moments.nonfinite","severity":"violation","tree":"n20-1a2b…","node":"out","detail":"1 non-finite moment entries (first: td)","values":{"td":"NaN"}}
//
// Setting the environment variable ELMORE_STRICT_NUMERICS=1 installs a
// strict monitor writing to stderr at package init — the hook the CI
// health-strict lane uses to run the whole test suite with invariant
// checking hard-enabled.
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"elmore/internal/telemetry"
)

// F is a float64 that survives JSON encoding even when non-finite: NaN
// and ±Inf are rendered as quoted strings ("NaN", "+Inf", "-Inf"),
// which is exactly the case a health event exists to report.
type F float64

// MarshalJSON implements json.Marshaler.
func (f F) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// Severity classifies an event.
type Severity string

const (
	// SeverityNote marks a degenerate-but-legal numerical condition.
	SeverityNote Severity = "note"
	// SeverityViolation marks a broken invariant.
	SeverityViolation Severity = "violation"
)

// Event is one health record. Check names are dotted
// "<package>.<condition>" slugs ("moments.nonfinite", "bounds.order");
// they double as the telemetry counter suffix.
type Event struct {
	Check    string       `json:"check"`
	Severity Severity     `json:"severity"`
	Tree     string       `json:"tree,omitempty"`
	Node     string       `json:"node,omitempty"`
	Detail   string       `json:"detail,omitempty"`
	Values   map[string]F `json:"values,omitempty"`
}

// Violation is the error a strict monitor returns from a violated
// check.
type Violation struct {
	Event
}

// Error implements error.
func (v *Violation) Error() string {
	var sb strings.Builder
	sb.WriteString("health: ")
	sb.WriteString(v.Check)
	if v.Tree != "" {
		fmt.Fprintf(&sb, " tree=%s", v.Tree)
	}
	if v.Node != "" {
		fmt.Fprintf(&sb, " node=%s", v.Node)
	}
	if v.Detail != "" {
		sb.WriteString(": ")
		sb.WriteString(v.Detail)
	}
	if len(v.Values) > 0 {
		keys := make([]string, 0, len(v.Values))
		for k := range v.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString(" (")
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s=%g", k, float64(v.Values[k]))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Monitor receives health events. A nil *Monitor is a valid disabled
// monitor: every method no-ops. Monitors are safe for concurrent use.
type Monitor struct {
	strict     bool
	events     atomic.Int64
	violations atomic.Int64

	mu  sync.Mutex
	w   io.Writer // NDJSON sink; nil counts without emitting
	err error     // first write error, sticky
}

// New returns a monitor emitting NDJSON events to w (nil counts
// without emitting). strict makes violations return errors.
func New(w io.Writer, strict bool) *Monitor {
	return &Monitor{w: w, strict: strict}
}

// Strict reports whether violations fail hard (false on nil).
func (m *Monitor) Strict() bool { return m != nil && m.strict }

// Events returns the total number of recorded events (notes and
// violations; 0 on nil).
func (m *Monitor) Events() int64 {
	if m == nil {
		return 0
	}
	return m.events.Load()
}

// Violations returns the number of recorded violations (0 on nil).
func (m *Monitor) Violations() int64 {
	if m == nil {
		return 0
	}
	return m.violations.Load()
}

// Err returns the first event-write error, if any.
func (m *Monitor) Err() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// record counts and emits one event.
func (m *Monitor) record(ev Event) {
	m.events.Add(1)
	if ev.Severity == SeverityViolation {
		m.violations.Add(1)
	}
	telemetry.C("health.events").Inc()
	if ev.Severity == SeverityViolation {
		telemetry.C("health.violations").Inc()
	}
	telemetry.C("health." + ev.Check).Inc()
	if m.w == nil {
		return
	}
	line, err := marshalEvent(ev)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return
	}
	if _, err := m.w.Write(line); err != nil && m.err == nil {
		m.err = err
	}
}

// marshalEvent renders one NDJSON line (trailing newline included).
func marshalEvent(ev Event) ([]byte, error) {
	b, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Note records a degenerate-but-legal condition on m. No-op on nil.
func (m *Monitor) Note(ev Event) {
	if m == nil {
		return
	}
	ev.Severity = SeverityNote
	m.record(ev)
}

// Violate records an invariant violation on m and returns a *Violation
// error when the monitor is strict (nil otherwise, and on a nil
// monitor).
func (m *Monitor) Violate(ev Event) error {
	if m == nil {
		return nil
	}
	ev.Severity = SeverityViolation
	m.record(ev)
	if m.strict {
		return &Violation{Event: ev}
	}
	return nil
}

// defaultMonitor is the process-wide monitor consulted by the
// package-level check helpers.
var defaultMonitor atomic.Pointer[Monitor]

// SetDefault installs m as the process-wide monitor (nil disables
// checking) and returns the previous one so callers can restore it.
func SetDefault(m *Monitor) (prev *Monitor) {
	return defaultMonitor.Swap(m)
}

// Default returns the current monitor, or nil when health checking is
// disabled.
func Default() *Monitor { return defaultMonitor.Load() }

// Enabled reports whether a monitor is installed. Engines use it to
// gate O(N) scans (waveform sentinels, moment sweeps) that would be
// pure waste with nobody listening.
func Enabled() bool { return Default() != nil }

// Note records a degenerate-but-legal condition on the default monitor.
func Note(ev Event) { Default().Note(ev) }

// Violate records an invariant violation on the default monitor,
// returning a *Violation error when it is strict.
func Violate(ev Event) error { return Default().Violate(ev) }

// TreeLabel renders the tree context carried by events: node count plus
// the rctree fingerprint. Call it once per analysis, and only when
// Enabled(), to keep hot paths allocation-free.
func TreeLabel(n int, fingerprint uint64) string {
	return fmt.Sprintf("n%d-%016x", n, fingerprint)
}

// IsFinite reports whether v is neither NaN nor ±Inf.
func IsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CheckFinite validates that the named quantity is finite, reporting a
// violation with tree/node context otherwise. The fast path — a finite
// value — is two branches and no monitor access.
func CheckFinite(check, tree, node, name string, v float64) error {
	if IsFinite(v) {
		return nil
	}
	return Violate(Event{
		Check:  check,
		Tree:   tree,
		Node:   node,
		Detail: name + " is not finite",
		Values: map[string]F{name: F(v)},
	})
}

func init() {
	if v := os.Getenv("ELMORE_STRICT_NUMERICS"); v != "" && v != "0" {
		SetDefault(New(os.Stderr, true))
	}
}
