// Package sim is a transient circuit simulator for RC trees: an MNA
// (modified nodal analysis) formulation integrated with the trapezoidal
// rule or backward Euler. The linear solve exploits the tree topology —
// eliminating children before parents produces zero fill-in, so every
// time step costs O(N). It scales to hundreds of thousands of nodes and
// serves as a ground truth that is independent of the
// eigen-decomposition engine in package exact (different formulation,
// different numerics).
//
// Nodes with zero capacitance (pure resistive junctions) contribute
// algebraic rows to the system. The trapezoidal rule is only marginally
// stable on algebraic constraints (it rings forever), so those rows are
// always integrated with the backward-Euler weight — a per-row
// θ-method. Rows with capacitance use the selected method.
//
// All kernels sweep the tree's own arrays (rctree.Tree.Arrays), whose
// index order is topological. One-shot runs go through Run; repeated
// runs over the same tree and step (characterization sweeps, batch
// verification) should build a Plan once and execute it many times —
// see Plan, Runner, and Runner.RunInto for the zero-allocation path.
package sim

import (
	"context"
	"fmt"

	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
	"elmore/internal/waveform"
)

// Method selects the integration rule for capacitive rows.
type Method int

const (
	// Trapezoidal is second-order accurate and A-stable; the default.
	Trapezoidal Method = iota
	// BackwardEuler is first-order, L-stable; it damps the trapezoidal
	// rule's ringing on stiff circuits at the cost of accuracy per step.
	BackwardEuler
)

func (m Method) String() string {
	switch m {
	case Trapezoidal:
		return "trapezoidal"
	case BackwardEuler:
		return "backward-euler"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a transient run.
type Options struct {
	// Input is the source voltage waveform (default: unit step).
	Input signal.Signal
	// TEnd is the simulation horizon. If <= 0 a horizon is estimated
	// from the largest Elmore delay plus the input rise time.
	TEnd float64
	// DT is the fixed time step. If <= 0, TEnd/4096 is used.
	DT float64
	// Method selects the integrator (default Trapezoidal).
	Method Method
	// Probes lists the node indices to record. Empty records all nodes.
	Probes []int
}

// Result holds the sampled node voltages of a transient run. A Result
// is not safe for concurrent use: Cross and Waveform build and memoize
// per-node waveforms on first access.
type Result struct {
	Times  []float64
	probes map[int]int          // node index -> row in values
	values [][]float64          // values[row][step]
	srcRow []int32              // row -> node index sampled by plan runs
	wfs    []*waveform.Waveform // row -> lazily built waveform (Cross cache)
}

// Voltages returns the recorded samples for a probed node (the slice is
// owned by the result).
func (r *Result) Voltages(node int) ([]float64, error) {
	row, ok := r.probes[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %d was not probed", node)
	}
	return r.values[row], nil
}

// waveformRow returns the memoized waveform for a probe row, building
// it on first access. Repeated Cross/Waveform calls on the same node
// reuse the one monotone-time validation and sample copy.
func (r *Result) waveformRow(node int) (*waveform.Waveform, error) {
	row, ok := r.probes[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %d was not probed", node)
	}
	if r.wfs == nil {
		r.wfs = make([]*waveform.Waveform, len(r.values))
	}
	if w := r.wfs[row]; w != nil {
		return w, nil
	}
	w, err := waveform.New(r.Times, r.values[row])
	if err != nil {
		return nil, err
	}
	r.wfs[row] = w
	return w, nil
}

// Waveform returns the recorded response at a probed node. The
// waveform is built once per node and shared between calls (and with
// Cross); treat it as read-only.
func (r *Result) Waveform(node int) (*waveform.Waveform, error) {
	return r.waveformRow(node)
}

// Cross returns the first time a probed node's sampled waveform
// reaches the level in the upward direction, linearly interpolated
// between samples. The node's waveform is built lazily on the first
// call and reused by subsequent calls, so sweeping many levels over
// one node costs one waveform construction.
//
// Error contract:
//   - a node that was not probed returns an error immediately;
//   - a level the waveform never reaches within the simulated horizon
//     returns an error mentioning the node and level — callers should
//     treat it as "extend TEnd or lower the level", not as a fault;
//   - a level at or below the initial sample is "crossed at t = 0":
//     Cross returns the first sample time (0 for Run results) and a
//     nil error;
//   - on a non-monotone waveform the first upward crossing is
//     returned, even if the waveform later falls back below the level;
//     later crossings are not reported.
func (r *Result) Cross(node int, level float64) (float64, error) {
	w, err := r.waveformRow(node)
	if err != nil {
		return 0, err
	}
	x, ok := w.Cross(level)
	if !ok {
		return 0, fmt.Errorf("sim: node %d never crosses %v within the horizon", node, level)
	}
	return x, nil
}

// Run integrates the tree's node equations over [0, TEnd].
func Run(t *rctree.Tree, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, opts)
}

// RunContext is Run under a context: with a telemetry tracer installed
// the run is recorded as a span (node count, step count, dt, method),
// and step/factorization counts and the horizon flow into the metrics
// registry. With telemetry disabled the overhead is a few nil checks.
//
// RunContext builds a one-shot Plan (stamp + factor) and
// executes it. Callers that simulate the same tree with the same step
// repeatedly should hold a Plan instead and amortize that setup.
func RunContext(ctx context.Context, t *rctree.Tree, opts Options) (*Result, error) {
	n := t.N()
	_, sp := telemetry.Start(ctx, "sim.run")
	sp.AttrInt("nodes", int64(n))
	sp.AttrString("method", opts.Method.String())
	defer sp.End()
	in := opts.Input
	if in == nil {
		in = signal.Step{}
	}
	if err := signal.Validate(in); err != nil {
		return nil, err
	}
	tEnd := opts.TEnd
	if tEnd <= 0 {
		tEnd = defaultHorizon(t, in)
	}
	dt := opts.DT
	if dt <= 0 {
		dt = tEnd / 4096
	}
	p, err := NewPlan(t, PlanOptions{DT: dt, Method: opts.Method})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if err := p.Runner().RunInto(in, RunOptions{TEnd: tEnd, Probes: opts.Probes}, res); err != nil {
		return nil, err
	}
	steps := len(res.Times) - 1
	sp.AttrInt("steps", int64(steps))
	sp.AttrFloat("dt_seconds", dt)
	telemetry.C("sim.runs").Inc()
	telemetry.G("sim.horizon_seconds").Set(tEnd)
	telemetry.Default().Histogram("sim.steps_per_run", stepsBuckets).Observe(float64(steps))
	return res, nil
}

// stepsBuckets are the histogram bounds for per-run step counts.
var stepsBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536}

// defaultHorizon estimates a settling horizon: ten times the largest
// Elmore delay (a conservative multiple of the dominant time constant)
// plus the input rise time.
func defaultHorizon(t *rctree.Tree, in signal.Signal) float64 {
	return 10*maxElmore(t) + 2*in.RiseTime()
}
