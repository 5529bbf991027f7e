// Package elmore is a timing-analysis toolkit for RC trees built around
// the results of Gupta, Tutuianu and Pileggi, "The Elmore Delay as a
// Bound for RC Trees with Generalized Input Signals" (DAC 1995 / IEEE
// TCAD 16(1), 1997):
//
//   - the Elmore delay T_D (first moment of the impulse response) is an
//     absolute upper bound on the 50% delay of any RC tree node;
//   - max(T_D - sigma, 0) is a lower bound, with sigma the impulse
//     response's standard deviation;
//   - both results extend from step inputs to any monotone input whose
//     derivative is unimodal (e.g. saturated ramps), and the actual
//     delay converges to T_D as the input rise time grows.
//
// The package exposes a compact facade over the internal engines:
//
//	tree := elmore.NewBuilder()                 // or ParseNetlist
//	n1 := tree.MustRoot("n1", 100, 1e-12)       // 100 ohm, 1 pF
//	tree.MustAttach(n1, "n2", 200, 2e-12)
//	t, _ := tree.Build()
//
//	rpt, _ := elmore.Analyze(t)                 // O(N) bounds per node
//	sys, _ := elmore.NewExactSystem(t)          // exact responses
//	d, _ := sys.Delay(1, elmore.Ramp(1e-9), 0)  // measured 50% delay
//
// Everything is stdlib-only Go. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper reproduction.
package elmore

import (
	"io"

	"elmore/internal/awe"
	"elmore/internal/core"
	"elmore/internal/exact"
	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/pimodel"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/waveform"
)

// Tree is an RC tree: per-node resistance toward the source and
// capacitance to ground. Build one with NewBuilder or ParseNetlist.
type Tree = rctree.Tree

// Builder constructs trees incrementally; see NewBuilder.
type Builder = rctree.Builder

// Source is the pseudo-parent index of root nodes.
const Source = rctree.Source

// NewBuilder returns an empty RC tree builder.
func NewBuilder() *Builder { return rctree.NewBuilder() }

// Netlist is a parsed SPICE-style deck: the tree plus the input node
// name and any parse warnings.
type Netlist = netlist.Deck

// ParseNetlist reads a SPICE-style RC deck (R/C/V cards) and returns
// the tree it describes. See internal/netlist for the accepted syntax.
func ParseNetlist(r io.Reader) (*Netlist, error) { return netlist.Parse(r) }

// ParseNetlistString is ParseNetlist on a string.
func ParseNetlistString(s string) (*Netlist, error) { return netlist.ParseString(s) }

// FormatNetlist renders a tree as a SPICE-style deck that round-trips
// through ParseNetlist.
func FormatNetlist(t *Tree, title string) string { return netlist.Format(t, title) }

// Analysis holds the closed-form delay bounds (Elmore upper bound,
// mu-sigma lower bound, single-pole estimate, Penfield-Rubinstein
// bounds) for every node; see the core package for field documentation.
type Analysis = core.Analysis

// Bounds is the per-node bound set inside an Analysis.
type Bounds = core.Bounds

// InputBounds are the generalized-input (Corollary 2/3) delay bounds.
type InputBounds = core.InputBounds

// Analyze computes all closed-form delay bounds for every node in
// O(N). This is the paper's contribution in one call.
func Analyze(t *Tree) (*Analysis, error) { return core.Analyze(t) }

// ElmoreDelays returns just the Elmore delay at every node — the
// classic two-traversal O(N) computation.
func ElmoreDelays(t *Tree) []float64 { return moments.ElmoreDelays(t) }

// Moments computes the Elmore delay T_D, the central moments μ2 and μ3
// of the impulse response and the PRH terms at every node, in O(N): the
// raw material for the bounds.
func Moments(t *Tree) (*MomentSet, error) { return moments.Compute(t) }

// MomentSet holds T_D, μ2 and μ3 per node (Elmore, Mu2, Mu3, Sigma,
// Skewness) and the PRH terms (TR, TP, PathResistance).
type MomentSet = moments.Set

// Incremental is a delta-update engine for what-if R/C perturbations:
// SetR/SetC/Revert/Commit with localized re-sweeps, every served value
// bit-identical to a full recompute. It is the engine behind
// Analysis.Reanalyze and cmd/optimize.
type Incremental = moments.Incremental

// NewIncremental binds a delta-update engine to a tree, computing its
// admittance, Elmore-delay and PRH state once.
func NewIncremental(t *Tree) (*Incremental, error) { return moments.NewIncremental(t) }

// ExactSystem evaluates machine-precision responses of a tree via
// eigen-decomposition: step/impulse/PWL waveforms, exact 50% delays,
// rise times, and impulse-response statistics. O(N^3) setup.
type ExactSystem = exact.System

// NewExactSystem builds the exact response engine. Every node needs
// strictly positive capacitance; see RegularizeTree.
func NewExactSystem(t *Tree) (*ExactSystem, error) { return exact.NewSystem(t) }

// RegularizeTree replaces zero capacitances with a tiny fraction of the
// smallest positive capacitance so the exact engine applies.
func RegularizeTree(t *Tree, frac float64) *Tree { return exact.Regularize(t, frac) }

// SimOptions configures the transient simulator.
type SimOptions = sim.Options

// SimResult holds simulated node waveforms.
type SimResult = sim.Result

// Simulate runs the MNA transient simulator (trapezoidal or backward
// Euler, O(N) per step) — the scalable ground truth for trees too large
// for NewExactSystem, and the only engine needed for zero-capacitance
// junction nodes.
func Simulate(t *Tree, opts SimOptions) (*SimResult, error) { return sim.Run(t, opts) }

// SimulateAdaptive runs the simulator with step-doubling local error
// control (tolerance in volts per step). Prefer Method: BackwardEuler
// for stiff circuits.
func SimulateAdaptive(t *Tree, opts SimOptions, tol float64) (*SimResult, error) {
	return sim.RunAdaptive(t, opts, tol)
}

// SimPlan is a reusable transient-simulation plan: the theta-method
// system stamped and the tree LU factored exactly once per
// (tree, dt, method) triple.
// Executing the plan on many inputs then skips all of that setup. Like
// fingerprints, plans snapshot element values: mutate the tree with
// SetR/SetC and build a fresh plan.
type SimPlan = sim.Plan

// SimPlanOptions configures NewSimPlan.
type SimPlanOptions = sim.PlanOptions

// SimRunOptions configures one execution of a SimPlan.
type SimRunOptions = sim.RunOptions

// SimRunner executes a SimPlan with reusable per-run workspaces; see
// SimPlan.Runner.
type SimRunner = sim.Runner

// NewSimPlan compiles, stamps and factors a simulation plan for the
// tree. Options.DT must be positive.
func NewSimPlan(t *Tree, opts SimPlanOptions) (*SimPlan, error) { return sim.NewPlan(t, opts) }

// Signal is a normalized 0->1 input transition.
type Signal = signal.Signal

// Waveform is a sampled waveform with interpolation, crossings and
// density statistics.
type Waveform = waveform.Waveform

// Step returns the ideal unit step input.
func Step() Signal { return signal.Step{} }

// Ramp returns a saturated ramp with 0-100% rise time tr — the paper's
// canonical generalized input (uniform, unimodal, symmetric
// derivative).
func Ramp(tr float64) Signal { return signal.SaturatedRamp{Tr: tr} }

// SmoothRamp returns a raised-cosine transition of duration tr.
func SmoothRamp(tr float64) Signal { return signal.RaisedCosine{Tr: tr} }

// ExpEdge returns the RC-style edge 1 - exp(-t/tau): unimodal but
// skewed derivative (Corollary 2 applies; Corollary 3 does not).
func ExpEdge(tau float64) Signal { return signal.Exponential{Tau: tau} }

// PWLPoint is a breakpoint of a piecewise-linear input.
type PWLPoint = signal.Point

// PWLSignal builds a monotone piecewise-linear input from breakpoints
// (first value 0, last value 1).
func PWLSignal(points []PWLPoint) (Signal, error) { return signal.NewPWL(points) }

// PiModel is the O'Brien-Savarino 3-moment reduced load.
type PiModel = pimodel.Model

// ReduceToPi reduces the whole tree, as seen from the source, to a pi
// load matching its first three admittance moments.
func ReduceToPi(t *Tree) (PiModel, error) { return pimodel.ForInput(t) }

// ReduceNodeToPi reduces the subtree downstream of node i.
func ReduceNodeToPi(t *Tree, i int) (PiModel, error) { return pimodel.ForNode(t, i) }

// PRHTmin evaluates the Penfield-Rubinstein lower waveform bound at
// threshold v given T_P, T_D(i), T_R(i).
func PRHTmin(tp, td, tr, v float64) float64 { return core.PRHTmin(tp, td, tr, v) }

// PRHTmax evaluates the Penfield-Rubinstein upper waveform bound.
func PRHTmax(tp, td, tr, v float64) float64 { return core.PRHTmax(tp, td, tr, v) }

// CornerOptions describes an elementwise process-variation box for
// CornerIntervals.
type CornerOptions = core.CornerOptions

// CornerInterval is a guaranteed delay interval across a variation box.
type CornerInterval = core.CornerInterval

// CornerIntervals computes, for every node, a 50% step-delay interval
// guaranteed over all R/C values inside the variation box: the Elmore
// bound at the slow corner above, the mu-sigma bound across corners
// below.
func CornerIntervals(t *Tree, opts CornerOptions) ([]CornerInterval, error) {
	return core.CornerIntervals(t, opts)
}

// AWEApprox is a stable q-pole reduced-order model fitted to a node's
// moments (asymptotic waveform evaluation).
type AWEApprox = awe.Approx

// AWEMomentSet holds the raw transfer-function moments m_0..m_q per
// node that AWE matches.
type AWEMomentSet = awe.Moments

// AWEMoments computes the raw transfer-function moments m_0..m_order at
// every node (order >= 1) in O(order·N): one sweep serves FitAWE at
// any number of nodes.
func AWEMoments(t *Tree, order int) (*AWEMomentSet, error) { return awe.ComputeMoments(t, order) }

// FitAWE fits the highest stable q-pole model with q <= order at the
// given node, falling back toward the single dominant pole. The moment
// set must have Order() >= 2 (>= 2*order for a full fit).
func FitAWE(ms *AWEMomentSet, node, order int) (*AWEApprox, error) {
	return awe.FitStable(ms, node, order)
}

// SinglePoleModel returns the paper's dominant-time-constant model
// (eq. 14): one pole at 1/T_D, whose 50% delay is ln(2)*T_D.
func SinglePoleModel(elmoreDelay float64) (*AWEApprox, error) {
	return awe.SinglePole(elmoreDelay)
}

// FormatSeconds renders a time with an SI prefix, e.g. "550ps".
func FormatSeconds(t float64) string { return rctree.FormatSeconds(t) }

// FormatOhms renders a resistance with an SI prefix.
func FormatOhms(r float64) string { return rctree.FormatOhms(r) }

// FormatFarads renders a capacitance with an SI prefix.
func FormatFarads(c float64) string { return rctree.FormatFarads(c) }
