// Package sta is a miniature static timing analyzer for gate + RC-net
// paths, built entirely on the paper's guarantees:
//
//   - each cell's delay/output-slew comes from its characterization
//     tables via effective-capacitance reduction (package gate);
//   - each net's sink delay is bracketed by the generalized-input
//     Elmore bounds (Corollary 2: the cell's output ramp has a
//     unimodal, symmetric derivative, so T_D is a hard upper bound and
//     mu-sigma a hard lower bound);
//   - sink transition times propagate by Appendix-B variance addition:
//     the output edge's derivative variance is the input's plus the
//     net's mu2, re-expressed as an equivalent saturated ramp.
//
// The result is a path arrival window [LB, UB] that is *certified* on
// the net segments — the part of timing that the Elmore theory covers —
// with table-accurate gate contributions.
package sta

import (
	"context"
	"fmt"
	"math"

	"elmore/internal/gate"
	"elmore/internal/moments"
	"elmore/internal/pimodel"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Stage is one gate driving one net; Sink names the net node that
// feeds the next stage (or the path endpoint).
type Stage struct {
	Cell *gate.Cell
	Net  *rctree.Tree
	Sink string
}

// Path is a chain of stages excited by an initial edge.
type Path struct {
	InputSlew float64 // transition time of the edge entering stage 0
	Stages    []Stage
}

// StageResult carries one stage's timing contributions.
type StageResult struct {
	Cell string
	Sink string

	Ceff       float64 // effective capacitance the cell saw
	GateDelay  float64 // table delay at (input slew, Ceff)
	OutputSlew float64 // ramp the cell launches into the net

	NetElmore float64 // T_D at the sink: the net-delay upper bound
	NetLower  float64 // mu-sigma net-delay lower bound
	SinkSlew  float64 // equivalent ramp duration at the sink
	ArrivalUB float64 // cumulative upper bound after this stage
	ArrivalLB float64 // cumulative lower bound after this stage
}

// PathResult is the full path analysis.
type PathResult struct {
	Stages    []StageResult
	ArrivalUB float64
	ArrivalLB float64
}

// AnalyzePath walks the path, propagating arrival bounds and slew.
func AnalyzePath(p Path) (*PathResult, error) {
	return AnalyzePathContext(context.Background(), p)
}

// MomentSource supplies the moment set for one net. It is the seam through which a batch engine injects a
// shared, fingerprint-keyed cache; when nil, moments.Compute runs per
// stage as before.
type MomentSource func(ctx context.Context, t *rctree.Tree) (*moments.Set, error)

// AnalyzePathContext is AnalyzePath under a context: when the context
// carries a telemetry tracer the path walk is recorded as a span with
// one child span per stage, and path/stage counts flow into the metrics
// registry. Cancellation/expiry of the context is observed at stage
// boundaries.
func AnalyzePathContext(ctx context.Context, p Path) (*PathResult, error) {
	return AnalyzePathMoments(ctx, p, nil)
}

// AnalyzePathMoments is AnalyzePathContext with an optional moment
// source for the per-net moment sets (nil means compute them fresh).
func AnalyzePathMoments(ctx context.Context, p Path, src MomentSource) (*PathResult, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("sta: path needs at least one stage")
	}
	if p.InputSlew < 0 || math.IsNaN(p.InputSlew) {
		return nil, fmt.Errorf("sta: invalid input slew %v", p.InputSlew)
	}
	ctx, sp := telemetry.Start(ctx, "sta.analyze_path")
	sp.AttrInt("stages", int64(len(p.Stages)))
	defer sp.End()
	res := &PathResult{}
	slew := p.InputSlew
	var ub, lb float64
	for si, st := range p.Stages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sta: stage %d: %w", si, err)
		}
		if st.Net == nil || st.Cell == nil {
			return nil, fmt.Errorf("sta: stage %d incomplete", si)
		}
		sctx, ssp := telemetry.Start(ctx, "sta.stage")
		ssp.AttrInt("index", int64(si))
		ssp.AttrString("sink", st.Sink)
		stageRes, err := analyzeStage(sctx, si, st, slew, src)
		if stageRes != nil {
			ssp.AttrString("cell", stageRes.Cell)
		}
		ssp.End()
		if err != nil {
			return nil, err
		}
		stageRes.ArrivalUB = ub + stageRes.GateDelay + stageRes.NetElmore
		stageRes.ArrivalLB = lb + stageRes.GateDelay + stageRes.NetLower
		ub = stageRes.ArrivalUB
		lb = stageRes.ArrivalLB
		res.Stages = append(res.Stages, *stageRes)
		slew = stageRes.SinkSlew
	}
	res.ArrivalUB = ub
	res.ArrivalLB = lb
	telemetry.C("sta.paths").Inc()
	telemetry.C("sta.stages").Add(int64(len(p.Stages)))
	return res, nil
}

// analyzeStage computes one stage's timing contributions; arrival
// bounds are accumulated by the caller.
func analyzeStage(ctx context.Context, si int, st Stage, slew float64, src MomentSource) (*StageResult, error) {
	sink, ok := st.Net.Index(st.Sink)
	if !ok {
		return nil, fmt.Errorf("sta: stage %d: net has no node %q", si, st.Sink)
	}
	load, err := pimodel.ForInput(st.Net)
	if err != nil {
		return nil, fmt.Errorf("sta: stage %d: %w", si, err)
	}
	drv, err := st.Cell.DriveLoad(slew, load)
	if err != nil {
		return nil, fmt.Errorf("sta: stage %d: %w", si, err)
	}

	var ms *moments.Set
	if src != nil {
		ms, err = src(ctx, st.Net)
	} else {
		ms, err = moments.Compute(st.Net)
	}
	if err != nil {
		return nil, fmt.Errorf("sta: stage %d: %w", si, err)
	}
	if ms == nil || ms.Tree().N() != st.Net.N() {
		return nil, fmt.Errorf("sta: stage %d: moment source returned an unusable set", si)
	}
	td := ms.Elmore(sink)
	mu2 := ms.Mu2(sink)
	tr := drv.OutputSlew

	// Net delay bounds for a saturated-ramp input of duration tr
	// (Corollary 2 upper; Corollary 1 generalized lower). The
	// input's 50% point is tr/2.
	inMu2 := tr * tr / 12
	outSigma := math.Sqrt(mu2 + inMu2)
	netLower := math.Max(td+tr/2-outSigma, 0) - tr/2
	if netLower < 0 {
		netLower = 0
	}

	// Sink transition: variance addition re-expressed as a ramp.
	sinkSlew := math.Sqrt(tr*tr + 12*mu2)

	return &StageResult{
		Cell:       st.Cell.Name,
		Sink:       st.Sink,
		Ceff:       drv.Ceff,
		GateDelay:  drv.Delay,
		OutputSlew: tr,
		NetElmore:  td,
		NetLower:   netLower,
		SinkSlew:   sinkSlew,
	}, nil
}
