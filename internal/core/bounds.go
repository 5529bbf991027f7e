// Package core implements the paper's primary contribution: delay
// bounds for RC trees built from the first three impulse-response
// moments.
//
//   - Theorem: the Elmore delay T_D = m1 is an absolute upper bound on
//     the 50% step-response delay (mode <= median <= mean).
//   - Corollary 1: max(mu - sigma, 0) is a lower bound.
//   - Corollary 2: the upper bound extends to any monotone input with a
//     unimodal derivative; the bound on the *mean* shifts by the mean
//     of the input derivative.
//   - Corollary 3: for symmetric-derivative inputs the actual delay
//     approaches T_D as the rise time grows.
//
// The package also provides the classical comparison metrics: the
// single-pole ln(2)·T_D estimate (paper eq. 14) and the full
// Penfield-Rubinstein-Horowitz step-response waveform bounds
// (paper eq. 15-16), plus the sigma-based output transition-time
// estimate of Section III-B.
package core

import (
	"context"
	"fmt"
	"math"

	"elmore/internal/health"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
)

// Bounds collects every closed-form delay metric the paper derives or
// compares against, for one node, under step excitation. All times in
// seconds.
//
// Zero-variance contract: at a node with mu2 == 0 (degenerate trees,
// e.g. every capacitance zeroed after construction) no field is NaN —
// Skewness is 0, Sigma and RiseTime are 0, Lower clamps to
// max(mu-sigma, 0) = mu, and the PRH bounds collapse to the
// instantaneous response.
type Bounds struct {
	Node string // node name

	// Moment statistics of the impulse response.
	Elmore   float64 // T_D = mean of h(t): the upper bound
	Sigma    float64 // sqrt(mu2)
	Mu2      float64
	Mu3      float64
	Skewness float64 // gamma = mu3 / mu2^(3/2) >= 0 (Lemma 2)

	// Delay bounds and estimates.
	Lower      float64 // max(mu - sigma, 0): Corollary 1 lower bound
	SinglePole float64 // ln(2) * T_D: dominant-pole estimate (eq. 14)
	PRHTmin    float64 // Penfield-Rubinstein lower bound at 50%
	PRHTmax    float64 // Penfield-Rubinstein upper bound at 50%

	// RiseTime is the paper's Section III-B transition-time estimate:
	// Elmore's "radius of gyration" sigma, scaled per RiseTimeScale.
	RiseTime float64
}

// RiseTimeScale converts sigma into a 10-90% rise-time estimate. For
// the single-pole response the exact factor is ln(9) ≈ 2.2; the paper
// states T_R ∝ sigma and leaves the constant open, so we use ln(9).
const RiseTimeScale = 2.1972245773362196 // ln 9

// Analysis carries per-node bounds plus the tree-level PRH terms.
type Analysis struct {
	Tree   *rctree.Tree
	TP     float64 // sum_k R_kk C_k (PRH)
	Bounds []Bounds
	prh    *moments.PRHTerms
	ms     *moments.Set
}

// Analyze computes all step-input bounds for every node of the tree.
func Analyze(t *rctree.Tree) (*Analysis, error) {
	return AnalyzeContext(context.Background(), t)
}

// AnalyzeContext is Analyze under a context: when the context carries a
// telemetry tracer the analysis is recorded as a span, and the node
// count flows into the metrics registry. A canceled or expired context
// aborts before any computation.
func AnalyzeContext(ctx context.Context, t *rctree.Tree) (*Analysis, error) {
	return analyze(ctx, t, nil)
}

// AnalyzeWithMoments is AnalyzeContext with a precomputed moment set.
// ms may have been computed for a different *Tree value as long as it
// describes the same circuit (equal rctree fingerprints); only node
// indices are read from it.
//
// Deprecated: the batch engine reads bounds at its sinks through
// BoundsAt, which takes the same moment set. AnalyzeWithMoments stays
// while the benchmark replay calls it.
func AnalyzeWithMoments(ctx context.Context, t *rctree.Tree, ms *moments.Set) (*Analysis, error) {
	if ms == nil {
		return nil, fmt.Errorf("core: AnalyzeWithMoments needs a non-nil moment set")
	}
	if ms.Tree().N() != t.N() {
		return nil, fmt.Errorf("core: moment set covers %d nodes, tree has %d", ms.Tree().N(), t.N())
	}
	return analyze(ctx, t, ms)
}

func analyze(ctx context.Context, t *rctree.Tree, ms *moments.Set) (*Analysis, error) {
	_, sp := telemetry.Start(ctx, "core.analyze")
	sp.AttrInt("nodes", int64(t.N()))
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sw, err := newSweep(t, ms)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Tree:   t,
		TP:     sw.prh.TP,
		Bounds: make([]Bounds, t.N()),
		prh:    sw.prh,
		ms:     sw.ms,
	}
	if err := sw.every(a.Bounds); err != nil {
		return nil, err
	}
	countAnalysis(t)
	return a, nil
}

// BoundsAt returns the bounds at the listed node indices, in list order
// (repeats allowed): the O(N) sweeps of Analyze plus one closed-form
// evaluation per listed node, so a net analyzed for a few sinks builds
// no per-node Bounds. ms is nil, or a precomputed moment set of the
// same circuit: it may belong to another *Tree value with an equal
// fingerprint, since only node indices are read from it. Every returned
// value is the one Analyze reports at that index.
//
// Under a health monitor every node is still evaluated and checked once,
// in index order, and the listed bounds are read from that pass, so the
// monitor records exactly the events (and a strict monitor returns
// exactly the error) of Analyze. Without one, the checks of unlisted
// nodes could only have been no-ops.
func BoundsAt(ctx context.Context, t *rctree.Tree, ms *moments.Set, nodes []int) ([]Bounds, error) {
	if ms != nil && ms.Tree().N() != t.N() {
		return nil, fmt.Errorf("core: moment set covers %d nodes, tree has %d", ms.Tree().N(), t.N())
	}
	for _, i := range nodes {
		if i < 0 || i >= t.N() {
			return nil, fmt.Errorf("core: node index %d out of range [0,%d)", i, t.N())
		}
	}
	_, sp := telemetry.Start(ctx, "core.analyze")
	sp.AttrInt("nodes", int64(t.N()))
	sp.AttrInt("sinks", int64(len(nodes)))
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sw, err := newSweep(t, ms)
	if err != nil {
		return nil, err
	}
	out := make([]Bounds, len(nodes))
	if sw.monitored() {
		all := make([]Bounds, t.N())
		if err := sw.every(all); err != nil {
			return nil, err
		}
		for k, i := range nodes {
			out[k] = all[i]
		}
	} else {
		for k, i := range nodes {
			if out[k], err = sw.at(i); err != nil {
				return nil, err
			}
		}
	}
	countAnalysis(t)
	return out, nil
}

// countAnalysis counts one finished analysis and the nodes its sweeps
// covered.
func countAnalysis(t *rctree.Tree) {
	telemetry.C("core.analyses").Inc()
	telemetry.C("core.nodes_analyzed").Add(int64(t.N()))
}

// sweep is the O(N) half of an analysis of one tree: the moment set
// and the PRH terms. The bounds at any node follow from them in closed
// form (at).
type sweep struct {
	t     *rctree.Tree
	ms    *moments.Set
	prh   *moments.PRHTerms
	label string // health tree label; empty when no monitor is installed
}

// newSweep runs the sweeps over t, computing the moment set unless ms
// is given.
func newSweep(t *rctree.Tree, ms *moments.Set) (sweep, error) {
	if ms == nil {
		var err error
		if ms, err = moments.Compute(t); err != nil {
			return sweep{}, err
		}
	}
	sw := sweep{t: t, ms: ms, prh: moments.ComputePRH(t)}
	if health.Enabled() {
		sw.label = health.TreeLabel(t.N(), t.Fingerprint())
	}
	return sw, nil
}

// monitored reports whether a health monitor was installed when the
// sweeps ran.
func (sw *sweep) monitored() bool { return sw.label != "" }

// at evaluates and checks the bounds of node i.
func (sw *sweep) at(i int) (Bounds, error) {
	b := newBounds(sw.t, i, sw.ms.Elmore(i), sw.ms.Mu2(i), sw.ms.Mu3(i), sw.prh.TP, sw.prh.TR(i))
	return b, checkBounds(sw.label, &b)
}

// every evaluates and checks every node in index order into out (one
// entry per node), stopping at the first check that fails.
func (sw *sweep) every(out []Bounds) error {
	for i := range out {
		b, err := sw.at(i)
		if err != nil {
			return err
		}
		out[i] = b
	}
	return nil
}

// newBounds builds the Bounds of node i of t from its T_D, μ2 and μ3 and
// the PRH terms T_P and T_R(i): the one set of formulas behind Analyze,
// BoundsAt and Reanalyze.
func newBounds(t *rctree.Tree, i int, td, mu2, mu3, tp, tr float64) Bounds {
	sigma := moments.Sigma(mu2, t, i)
	return Bounds{
		Node:       t.Name(i),
		Elmore:     td,
		Sigma:      sigma,
		Mu2:        mu2,
		Mu3:        mu3,
		Skewness:   moments.Skewness(mu2, mu3),
		Lower:      math.Max(td-sigma, 0),
		SinglePole: math.Ln2 * td,
		PRHTmin:    PRHTmin(tp, td, tr, 0.5),
		PRHTmax:    PRHTmax(tp, td, tr, 0.5),
		RiseTime:   RiseTimeScale * sigma,
	}
}

// checkBounds runs the paper's invariants on one node's freshly
// computed bounds, reporting health violations fail-soft (hard only
// under a strict monitor). The passing path is a handful of float
// comparisons and no allocation, so every evaluated node is checked;
// under a monitor that is every node of the tree, BoundsAt included.
// Lemma 2 guarantees mu2 >= 0 and gamma >= 0, and the
// cumulant sweep keeps both exactly in floating point (every term it
// adds is non-negative), so the checks carry no tolerance: anything
// below zero, or NaN, is a fault.
func checkBounds(tree string, b *Bounds) error {
	if err := health.CheckFinite("core.nonfinite", tree, b.Node, "elmore", b.Elmore); err != nil {
		return err
	}
	if err := health.CheckFinite("core.nonfinite", tree, b.Node, "mu2", b.Mu2); err != nil {
		return err
	}
	if !(b.Mu2 >= 0) { // negated form catches NaN
		if err := health.Violate(health.Event{
			Check:  "moments.mu2_negative",
			Tree:   tree,
			Node:   b.Node,
			Detail: "variance negative (Lemma 2 requires mu2 >= 0)",
			Values: map[string]health.F{"mu2": health.F(b.Mu2), "elmore": health.F(b.Elmore)},
		}); err != nil {
			return err
		}
	}
	if !(b.Skewness >= 0) {
		if err := health.Violate(health.Event{
			Check:  "moments.skew_negative",
			Tree:   tree,
			Node:   b.Node,
			Detail: "skewness negative (Lemma 2 requires gamma >= 0)",
			Values: map[string]health.F{"skewness": health.F(b.Skewness)},
		}); err != nil {
			return err
		}
	}
	tol := 1e-12 * math.Abs(b.Elmore)
	if !(b.Lower <= b.Elmore+tol) {
		if err := health.Violate(health.Event{
			Check:  "bounds.order",
			Tree:   tree,
			Node:   b.Node,
			Detail: "lower bound exceeds the Elmore upper bound",
			Values: map[string]health.F{"lower": health.F(b.Lower), "elmore": health.F(b.Elmore)},
		}); err != nil {
			return err
		}
	}
	if !(b.PRHTmin <= b.PRHTmax+tol) {
		if err := health.Violate(health.Event{
			Check:  "bounds.prh_order",
			Tree:   tree,
			Node:   b.Node,
			Detail: "PRH lower waveform bound exceeds the upper bound at v=0.5",
			Values: map[string]health.F{"prh_tmin": health.F(b.PRHTmin), "prh_tmax": health.F(b.PRHTmax)},
		}); err != nil {
			return err
		}
	}
	return nil
}

// At returns the bounds for a named node.
func (a *Analysis) At(name string) (Bounds, error) {
	i, ok := a.Tree.Index(name)
	if !ok {
		return Bounds{}, fmt.Errorf("core: no node named %q", name)
	}
	return a.Bounds[i], nil
}

// Moments exposes the underlying moment set.
func (a *Analysis) Moments() *moments.Set { return a.ms }

// PRH exposes the underlying Penfield-Rubinstein terms.
func (a *Analysis) PRH() *moments.PRHTerms { return a.prh }

// PRHTmin evaluates the Penfield-Rubinstein-Horowitz lower waveform
// bound t_min(v) (paper eq. 15) for threshold v in [0, 1), given
// T_P, T_D(i) and T_R(i). A degenerate tree with T_P = 0 (no
// capacitance anywhere, hence a zero-variance impulse response) has an
// instantaneous step response, so every threshold is crossed at t = 0
// rather than the 0/0 = NaN the raw formula would produce.
func PRHTmin(tp, td, tr, v float64) float64 {
	switch {
	case v < 0 || v >= 1:
		return math.NaN()
	case tp <= 0:
		return 0
	case v <= 1-td/tp:
		return 0
	case v <= 1-tr/tp:
		return td - tp*(1-v)
	default:
		return td - tr + tr*math.Log(tr/(tp*(1-v)))
	}
}

// PRHTmax evaluates the Penfield-Rubinstein-Horowitz upper waveform
// bound t_max(v) (paper eq. 15; Rubinstein-Penfield-Horowitz 1983).
//
// Note: the second branch is T_P - T_R + T_P ln[...]. (Some reprints
// typeset it as "T_D - T_R + ...", which is discontinuous at the branch
// point v = 1 - T_D/T_P and falls below the exact response; the form
// here is continuous there and reduces to the exact RC ln(1/(1-v)) for
// a single-pole circuit, where T_P = T_D = T_R.)
// Like PRHTmin it defines the capacitance-free T_P = 0 case as an
// instantaneous response: every threshold is crossed at t = 0.
func PRHTmax(tp, td, tr, v float64) float64 {
	switch {
	case v < 0 || v >= 1:
		return math.NaN()
	case tp <= 0:
		return 0
	case v <= 1-td/tp:
		return td/(1-v) - tr
	default:
		return tp - tr + tp*math.Log(td/(tp*(1-v)))
	}
}

// InputBounds are the Corollary 2/3 bounds on the 50% delay for a
// general (non-step) input, measured from the input's own 50% crossing.
type InputBounds struct {
	// Upper is the Corollary 2 bound: mean(v_out') - t_in50 =
	// T_D + mean(v_in') - t_in50. For any symmetric-derivative input
	// this equals T_D exactly.
	Upper float64
	// Lower is the Corollary 1 bound applied to the output derivative:
	// max(mean_out - sigma_out, 0) - t_in50, clamped at -t_in50 (the
	// output crossing itself cannot be negative).
	Lower float64
	// OutputSigma is the standard deviation of the output derivative:
	// sqrt(mu2_h + mu2_in) — also the Section III-B transition-time
	// scale of the output edge.
	OutputSigma float64
	// OutputSkew is the skewness of the output derivative; it drives
	// Corollary 3 (delay -> T_D as skew -> 0).
	OutputSkew float64
}

// ForInput computes the generalized-input delay bounds at node i for a
// monotone input signal (see Bounds.ForInput).
func (a *Analysis) ForInput(i int, sig signal.Signal) (InputBounds, error) {
	return a.Bounds[i].ForInput(sig)
}

// ForInput computes the generalized-input delay bounds at this node for
// a monotone input signal. It returns an error if the input's
// derivative is not unimodal — the hypothesis of Corollary 2 — since
// the Elmore upper bound is only proven under that condition.
func (b *Bounds) ForInput(sig signal.Signal) (InputBounds, error) {
	if err := signal.Validate(sig); err != nil {
		return InputBounds{}, err
	}
	if !sig.UnimodalDerivative() {
		return InputBounds{}, fmt.Errorf("core: input %v has a non-unimodal derivative; Corollary 2 does not apply", sig)
	}
	inMean := sig.DerivMean()
	in50 := sig.Cross(0.5)
	outMean := b.Elmore + inMean
	outMu2 := b.Mu2 + sig.DerivMu2()
	outMu3 := b.Mu3 + sig.DerivMu3()
	outSigma := 0.0
	if outMu2 > 0 {
		outSigma = math.Sqrt(outMu2)
	}
	skew := 0.0
	if outMu2 > 0 {
		skew = outMu3 / math.Pow(outMu2, 1.5)
	}
	lower := outMean - outSigma
	if lower < 0 {
		lower = 0
	}
	return InputBounds{
		Upper:       outMean - in50,
		Lower:       lower - in50,
		OutputSigma: outSigma,
		OutputSkew:  skew,
	}, nil
}

// WindowAt returns a guaranteed [lo, hi] window for the time the step
// response at node i reaches threshold v in (0, 1): the
// Penfield-Rubinstein waveform bracket, tightened at v = 0.5 by the
// paper's moment bounds (the mu-sigma lower bound and the Elmore upper
// bound), which often beat the PRH bracket on one side each.
func (a *Analysis) WindowAt(i int, v float64) (lo, hi float64, err error) {
	if v <= 0 || v >= 1 {
		return 0, 0, fmt.Errorf("core: threshold must be in (0,1), got %v", v)
	}
	b := a.Bounds[i]
	tr := a.prh.TR(i)
	lo = PRHTmin(a.TP, b.Elmore, tr, v)
	hi = PRHTmax(a.TP, b.Elmore, tr, v)
	if v == 0.5 {
		lo = math.Max(lo, b.Lower)
		hi = math.Min(hi, b.Elmore)
	}
	return lo, hi, nil
}
