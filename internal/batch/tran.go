package batch

import (
	"context"
	"fmt"
	"math"

	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sim"
)

// TranJob asks for a transient characterization sweep on one net: the
// tree is stamped and factored once into a sim.Plan (shared through its
// entry when the engine's tree cache holds the tree), then executed for
// every input with one reusable Runner/Result pair — the zero-
// allocation steady-state path. The recorded outcome is the threshold
// crossing time of every probe at every level, which is what slew/
// corner sweeps consume; full waveforms are deliberately not retained
// across inputs.
type TranJob struct {
	Tree *rctree.Tree                 // pre-built net; takes precedence over Load
	Load func() (*rctree.Tree, error) // lazy loader, called in-worker

	DT     float64    // fixed step; must be positive
	Method sim.Method // integrator (default Trapezoidal)
	TEnd   float64    // horizon; <= 0 estimates one per input from the plan

	// Inputs lists the excitations to sweep; a nil entry is the ideal
	// step. An empty slice runs the ideal step once.
	Inputs []signal.Signal
	// Probes lists node names to measure; empty measures every node.
	Probes []string
	// Levels lists the thresholds to report; empty means {0.5}.
	Levels []float64
}

// TranCross is one measured threshold crossing. Reached is false when
// the waveform never reaches the level within the horizon (T is 0
// then) — a per-measurement outcome, not a job error.
type TranCross struct {
	Node    string
	Level   float64
	T       float64
	Reached bool
}

// TranRun carries the crossings for one input of the sweep, in
// Probes-major, Levels-minor order.
type TranRun struct {
	Input     int // index into TranJob.Inputs
	Crossings []TranCross
}

// TranResult is the outcome of one transient job.
type TranResult struct {
	Runs []TranRun
}

func (e *Engine) runTran(ctx context.Context, tj *TranJob, tree *rctree.Tree) (*TranResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	key := derivedKey{plan: true, dtBits: math.Float64bits(tj.DT), method: tj.Method}
	v, hit, err := e.derive(ctx, tree, key, "batch.plan_cache_hits", "batch.plan_cache_misses",
		func() (any, error) { return sim.NewPlan(tree, sim.PlanOptions{DT: tj.DT, Method: tj.Method}) })
	if err != nil {
		return nil, false, err
	}
	plan := v.(*sim.Plan)

	names := tj.Probes
	if len(names) == 0 {
		names = tree.Names()
	}
	probes := make([]int, len(names))
	for k, name := range names {
		i, ok := tree.Index(name)
		if !ok {
			return nil, hit, fmt.Errorf("batch: net has no node %q", name)
		}
		probes[k] = i
	}
	levels := tj.Levels
	if len(levels) == 0 {
		levels = []float64{0.5}
	}
	inputs := tj.Inputs
	if len(inputs) == 0 {
		inputs = []signal.Signal{nil}
	}

	runner := plan.Runner()
	res := &sim.Result{}
	out := &TranResult{Runs: make([]TranRun, 0, len(inputs))}
	for k, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, hit, err
		}
		if err := runner.RunInto(in, sim.RunOptions{TEnd: tj.TEnd, Probes: probes}, res); err != nil {
			return nil, hit, fmt.Errorf("batch: tran input %d: %w", k, err)
		}
		run := TranRun{Input: k, Crossings: make([]TranCross, 0, len(probes)*len(levels))}
		for pi, node := range probes {
			// One lazily built waveform per probe serves every level.
			w, err := res.Waveform(node)
			if err != nil {
				return nil, hit, err
			}
			for _, level := range levels {
				tc := TranCross{Node: names[pi], Level: level}
				if x, ok := w.Cross(level); ok {
					tc.T, tc.Reached = x, true
				}
				run.Crossings = append(run.Crossings, tc)
			}
		}
		out.Runs = append(out.Runs, run)
	}
	return out, hit, nil
}
