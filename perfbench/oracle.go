package main

import (
	"encoding/json"
	"fmt"
	"math"

	"elmore/internal/exact"
	"elmore/internal/rctree"
	"elmore/internal/signal"
)

// Result records as the CLI and elmored print them. The harness keeps
// its own copy of the schema so a renamed field fails the checks
// instead of silently decoding to zero.
type resultRec struct {
	Record    string    `json:"record"` // "serve_summary" on elmored's trailer line
	Index     int       `json:"index"`
	ID        string    `json:"id"`
	Error     string    `json:"error"`
	CacheHit  bool      `json:"cache_hit"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Sinks     []sinkRec `json:"sinks"`

	// serve_summary fields.
	Total       int  `json:"total"`
	Emitted     int  `json:"emitted"`
	Failed      int  `json:"failed"`
	Interrupted bool `json:"interrupted"`
}

type sinkRec struct {
	Node    string  `json:"node"`
	Elmore  float64 `json:"elmore"`
	Lower   float64 `json:"lower"`
	PRHTmin float64 `json:"prh_tmin"`
	PRHTmax float64 `json:"prh_tmax"`
	Sigma   float64 `json:"sigma"`
	Input   *struct {
		Upper float64 `json:"upper"`
		Lower float64 `json:"lower"`
	} `json:"input"`
}

func decodeRecord(line []byte) (resultRec, error) {
	var r resultRec
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("undecodable result line: %w", err)
	}
	return r, nil
}

// netRef holds per-node reference values computed from the generator's
// arrays by O(N) sweeps written independently of the moments package:
// T_D from downstream capacitances, T_R from the downward recurrence
// S(i) = S(p) + (R_ii^2 - R_pp^2) Cdown(i), and mu2 from
// m2(i) = sum over the source path of R_j * sum_{k below j} C_k T_D(k).
type netRef struct {
	td, tr, mu2 []float64
	tp          float64
}

func reference(n *rcNet) *netRef {
	N := n.size()
	cdown := append([]float64(nil), n.c...)
	for i := N - 1; i > 0; i-- {
		cdown[n.parent[i]] += cdown[i]
	}
	rpath := make([]float64, N)
	s := make([]float64, N)
	ref := &netRef{td: make([]float64, N), tr: make([]float64, N), mu2: make([]float64, N)}
	for i := 0; i < N; i++ {
		var rp, sp, tdp float64
		if p := n.parent[i]; p >= 0 {
			rp, sp, tdp = rpath[p], s[p], ref.td[p]
		}
		rpath[i] = rp + n.r[i]
		s[i] = sp + (rpath[i]*rpath[i]-rp*rp)*cdown[i]
		ref.tr[i] = s[i] / rpath[i]
		ref.td[i] = tdp + n.r[i]*cdown[i]
		ref.tp += rpath[i] * n.c[i]
	}
	w := make([]float64, N)
	for i := 0; i < N; i++ {
		w[i] = n.c[i] * ref.td[i]
	}
	for i := N - 1; i > 0; i-- {
		w[n.parent[i]] += w[i]
	}
	m2 := make([]float64, N)
	for i := 0; i < N; i++ {
		if p := n.parent[i]; p >= 0 {
			m2[i] = m2[p]
		}
		m2[i] += n.r[i] * w[i]
		ref.mu2[i] = 2*m2[i] - ref.td[i]*ref.td[i]
	}
	return ref
}

// prhWindow is the Penfield-Rubinstein-Horowitz 50% bracket
// (Rubinstein, Penfield, Horowitz 1983) written out from the paper's
// eq. 15 for the oracle.
func prhWindow(tp, td, tr float64) (lo, hi float64) {
	const v = 0.5
	switch {
	case tp <= 0:
		return 0, 0
	case v <= 1-td/tp:
		lo = 0
	case v <= 1-tr/tp:
		lo = td - tp*(1-v)
	default:
		lo = td - tr + tr*math.Log(tr/(tp*(1-v)))
	}
	if v <= 1-td/tp {
		hi = td/(1-v) - tr
	} else {
		hi = tp - tr + tp*math.Log(td/(tp*(1-v)))
	}
	return lo, hi
}

// relTol is the relative tolerance of reference comparisons: loose
// enough for a reassociated sum, tight enough to catch a wrong term.
const relTol = 1e-9

func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), scale)
}

// checkSink verifies one reported node against the reference. rise is
// the saturated-ramp rise time of the job's input (0 for a step). The
// lower bound must be exactly max(elmore - sigma, 0), computed from the
// record's own fields.
func (ref *netRef) checkSink(s sinkRec, rise float64) error {
	i, ok := nodeIndex(s.Node)
	if !ok || int(i) >= len(ref.td) {
		return fmt.Errorf("unknown node %q", s.Node)
	}
	td := ref.td[i]
	if !near(s.Elmore, td, 0) {
		return fmt.Errorf("node %s: elmore %g, reference %g", s.Node, s.Elmore, td)
	}
	if s.Lower != math.Max(s.Elmore-s.Sigma, 0) || !(s.Lower <= s.Elmore) {
		return fmt.Errorf("node %s: lower %g is not max(elmore-sigma, 0) <= elmore (elmore %g, sigma %g)", s.Node, s.Lower, s.Elmore, s.Sigma)
	}
	if !near(s.Sigma*s.Sigma, math.Max(ref.mu2[i], 0), td*td) {
		return fmt.Errorf("node %s: sigma^2 %g, reference mu2 %g", s.Node, s.Sigma*s.Sigma, ref.mu2[i])
	}
	lo, hi := prhWindow(ref.tp, td, ref.tr[i])
	if !near(s.PRHTmin, lo, td) || !near(s.PRHTmax, hi, td) {
		return fmt.Errorf("node %s: PRH window [%g, %g], reference [%g, %g]", s.Node, s.PRHTmin, s.PRHTmax, lo, hi)
	}
	if rise > 0 {
		if s.Input == nil {
			return fmt.Errorf("node %s: ramp job without an input window", s.Node)
		}
		// A saturated ramp's derivative is uniform on [0, rise]: it adds
		// rise/2 to the mean and rise^2/12 to the variance, and its own
		// 50% crossing is at rise/2.
		outSigma := math.Sqrt(math.Max(s.Sigma*s.Sigma+rise*rise/12, 0))
		wantLo := math.Max(td+rise/2-outSigma, 0) - rise/2
		if !near(s.Input.Upper, td, td) || !near(s.Input.Lower, wantLo, td+rise) {
			return fmt.Errorf("node %s: input window [%g, %g], reference [%g, %g]", s.Node, s.Input.Lower, s.Input.Upper, wantLo, td)
		}
	} else if s.Input != nil {
		return fmt.Errorf("node %s: step job carries an input window", s.Node)
	}
	return nil
}

// buildTree builds the net with rctree.Builder straight from the
// generator's arrays (no deck parsing), for the exact solver.
func (n *rcNet) buildTree() (*rctree.Tree, error) {
	b := rctree.NewBuilder()
	ids := make([]int, n.size())
	for i, p := range n.parent {
		name := string(appendNodeName(nil, int32(i)))
		if p < 0 {
			ids[i] = b.MustRoot(name, n.r[i], n.c[i])
		} else {
			ids[i] = b.MustAttach(ids[p], name, n.r[i], n.c[i])
		}
	}
	return b.Build()
}

// exactCheck asserts the paper's theorem on a small net: the exact 50%
// delay of every reported sink lies inside [lower, elmore] (for a ramp,
// inside the input window measured from the input's own 50% point).
func exactCheck(n *rcNet, sinks []sinkRec, rise float64) error {
	t, err := n.buildTree()
	if err != nil {
		return err
	}
	sys, err := exact.NewSystem(t)
	if err != nil {
		return err
	}
	var in signal.Signal = signal.Step{}
	if rise > 0 {
		in = signal.SaturatedRamp{Tr: rise}
	}
	for _, s := range sinks {
		i, ok := t.Index(s.Node)
		if !ok {
			return fmt.Errorf("exact: unknown node %q", s.Node)
		}
		d, err := sys.Delay(i, in, 0)
		if err != nil {
			return fmt.Errorf("exact: node %s: %w", s.Node, err)
		}
		lo, hi := s.Lower, s.Elmore
		if rise > 0 {
			lo, hi = s.Input.Lower, s.Input.Upper
		}
		slack := 1e-6 * s.Elmore
		if d < lo-slack || d > hi+slack {
			return fmt.Errorf("exact: node %s of %s: 50%% delay %g outside [%g, %g]", s.Node, n.name, d, lo, hi)
		}
	}
	return nil
}
