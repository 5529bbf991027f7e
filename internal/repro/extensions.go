package repro

import (
	"fmt"
	"math"

	"elmore/internal/core"
	"elmore/internal/exact"
	"elmore/internal/moments"
	"elmore/internal/signal"
	"elmore/internal/topo"
)

// The experiments below go beyond the paper's published artifacts,
// exercising results the text states without plotting.

// FigPRH samples the exact step response at a Fig. 1 node together
// with the Penfield-Rubinstein-Horowitz waveform bounds t_min(v) and
// t_max(v) — the bracket the paper's Table I takes its columns (6)-(7)
// from, drawn as full curves.
func FigPRH(nodeName string) ([]Series, error) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		return nil, err
	}
	an, err := core.Analyze(tree)
	if err != nil {
		return nil, err
	}
	i, ok := tree.Index(nodeName)
	if !ok {
		return nil, fmt.Errorf("repro: no node %q in the Fig. 1 circuit", nodeName)
	}
	td := an.Bounds[i].Elmore
	trr := an.Moments().TR(i)

	const n = 120
	exactS := Series{Name: "exact t(v)@" + nodeName}
	minS := Series{Name: "PRH t_min(v)"}
	maxS := Series{Name: "PRH t_max(v)"}
	for k := 1; k <= n; k++ {
		v := 0.99 * float64(k) / float64(n)
		t, err := sys.CrossStep(i, v)
		if err != nil {
			return nil, err
		}
		exactS.X = append(exactS.X, t)
		exactS.Y = append(exactS.Y, v)
		minS.X = append(minS.X, core.PRHTmin(an.TP, td, trr, v))
		minS.Y = append(minS.Y, v)
		maxS.X = append(maxS.X, core.PRHTmax(an.TP, td, trr, v))
		maxS.Y = append(maxS.Y, v)
	}
	return []Series{minS, exactS, maxS}, nil
}

// CheckPRHFigure verifies the bracket: t_min(v) <= exact <= t_max(v)
// pointwise over the sampled levels.
func CheckPRHFigure(series []Series) []string {
	if len(series) != 3 {
		return []string{"expected 3 series"}
	}
	var bad []string
	minS, exactS, maxS := series[0], series[1], series[2]
	for k := range exactS.X {
		if exactS.X[k] < minS.X[k]*(1-1e-9) {
			bad = append(bad, fmt.Sprintf("v=%.3f: exact %g below t_min %g", exactS.Y[k], exactS.X[k], minS.X[k]))
		}
		if exactS.X[k] > maxS.X[k]*(1+1e-9) {
			bad = append(bad, fmt.Sprintf("v=%.3f: exact %g above t_max %g", exactS.Y[k], exactS.X[k], maxS.X[k]))
		}
	}
	return bad
}

// InputShapeRow is one input family in the input-shape study.
type InputShapeRow struct {
	Input string
	// Upper is the generalized Corollary-2 bound (T_D for symmetric
	// derivatives, shifted for skewed ones).
	Upper float64
	Delay float64 // exact 50% delay
	// MarginPct is (Upper - Delay)/Delay * 100.
	MarginPct float64
}

// InputShapeStudy measures, at a Fig. 1 node, the exact delay and its
// generalized bound for equal-variance input edges of different shapes
// (saturated ramp, raised cosine, exponential). It demonstrates
// Corollary 2's breadth: the bound holds for every unimodal-derivative
// edge, with the shift T_D + mean(v') - t50(v) exact for skewed inputs.
func InputShapeStudy(nodeName string, sigmaIn float64) ([]InputShapeRow, error) {
	tree := topo.Fig1Tree()
	sys, err := exact.NewSystem(tree)
	if err != nil {
		return nil, err
	}
	i, ok := tree.Index(nodeName)
	if !ok {
		return nil, fmt.Errorf("repro: no node %q in the Fig. 1 circuit", nodeName)
	}
	td := moments.ElmoreDelays(tree)[i]

	// Equal derivative-sigma edges: match each family's parameter so
	// sqrt(DerivMu2) == sigmaIn.
	inputs := []signal.Signal{
		signal.SaturatedRamp{Tr: sigmaIn * math.Sqrt(12)},
		signal.RaisedCosine{Tr: sigmaIn / math.Sqrt(0.25-2/(math.Pi*math.Pi))},
		signal.Exponential{Tau: sigmaIn},
	}
	var rows []InputShapeRow
	for _, sig := range inputs {
		d, err := sys.Delay(i, sig, 0)
		if err != nil {
			return nil, err
		}
		upper := td + sig.DerivMean() - sig.Cross(0.5)
		rows = append(rows, InputShapeRow{
			Input:     sig.String(),
			Upper:     upper,
			Delay:     d,
			MarginPct: (upper - d) / d * 100,
		})
	}
	return rows, nil
}

// CheckInputShapes verifies the bound for every row and that the
// equal-sigma inputs all landed within their bounds.
func CheckInputShapes(rows []InputShapeRow) []string {
	var bad []string
	for _, r := range rows {
		if r.Delay > r.Upper*(1+1e-9) {
			bad = append(bad, fmt.Sprintf("%s: delay %g exceeds bound %g", r.Input, r.Delay, r.Upper))
		}
	}
	return bad
}
