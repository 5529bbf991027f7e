package core

import (
	"context"
	"fmt"

	"elmore/internal/health"
	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
)

// SimCheck is the outcome of verifying one node's closed-form delay
// window against a transient simulation.
type SimCheck struct {
	Node     string
	Lower    float64 // guaranteed lower bound on the 50% delay
	Upper    float64 // guaranteed upper bound (the Elmore delay for steps)
	Measured float64 // simulated 50% crossing
	Slack    float64 // min(Measured-Lower, Upper-Measured); negative = violation
	Within   bool    // Measured ∈ [Lower-tol, Upper+tol]
}

// VerifyOptions configures VerifySim.
type VerifyOptions struct {
	// Nodes lists the node indices to check; empty checks every node.
	Nodes []int
	// Input is the excitation (default: ideal step). Non-step inputs
	// check the Corollary 2 window measured from the input's own 50%
	// crossing.
	Input signal.Signal
	// DT is the simulation step; <= 0 picks Horizon/4096 like sim.Run.
	DT float64
	// Tol is the accepted numerical slack in seconds; <= 0 uses one
	// simulation step (crossings are interpolated between samples, so
	// the discretization error is below one step).
	Tol float64
}

// VerifySim checks the paper's guaranteed delay window against the MNA
// transient simulator: for every requested node the simulated 50%
// crossing must fall inside [Lower, Upper] up to the discretization
// tolerance. The tree is stamped and factored once into a sim.Plan; one run with all requested probes serves every check. A
// node whose response never reaches 50% within the horizon is reported
// as an error (the horizon policy is the same 10×max-Elmore one
// sim.Run uses, which settles any RC tree well past 50%).
func (a *Analysis) VerifySim(ctx context.Context, opts VerifyOptions) ([]SimCheck, error) {
	_, sp := telemetry.Start(ctx, "core.verify_sim")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in := opts.Input
	if in == nil {
		in = signal.Step{}
	}
	nodes := opts.Nodes
	if len(nodes) == 0 {
		nodes = make([]int, a.Tree.N())
		for i := range nodes {
			nodes[i] = i
		}
	}
	dt := opts.DT
	if dt <= 0 {
		// Mirror sim.Run's default resolution.
		dt = defaultVerifyDT(a, in)
	}
	plan, err := sim.NewPlan(a.Tree, sim.PlanOptions{DT: dt})
	if err != nil {
		return nil, err
	}
	res, err := plan.Run(in, sim.RunOptions{Probes: nodes})
	if err != nil {
		return nil, err
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = dt
	}
	_, isStep := in.(signal.Step)
	in50 := 0.0
	if !isStep {
		in50 = in.Cross(0.5)
	}
	var treeLabel string
	if health.Enabled() {
		treeLabel = health.TreeLabel(a.Tree.N(), a.Tree.Fingerprint())
	}
	sp.AttrInt("nodes", int64(len(nodes)))
	checks := make([]SimCheck, 0, len(nodes))
	for _, i := range nodes {
		x, err := res.Cross(i, 0.5)
		if err != nil {
			return nil, fmt.Errorf("core: verify: %w", err)
		}
		c := SimCheck{Node: a.Tree.Name(i)}
		if isStep {
			c.Lower, c.Upper = a.Bounds[i].Lower, a.Bounds[i].Elmore
			c.Measured = x
		} else {
			ib, err := a.ForInput(i, in)
			if err != nil {
				return nil, err
			}
			c.Lower, c.Upper = ib.Lower, ib.Upper
			c.Measured = x - in50
		}
		lo, hi := c.Measured-c.Lower, c.Upper-c.Measured
		c.Slack = lo
		if hi < lo {
			c.Slack = hi
		}
		c.Within = c.Slack >= -tol
		// Sim-vs-bound residual: how much of the guaranteed window the
		// Elmore bound leaves on the table, as a fraction of the bound.
		// Violations land in the (-inf, 0] bucket, so the histogram
		// doubles as a cheap violation-rate signal.
		if c.Upper > 0 {
			telemetry.Default().Histogram("health.residual_rel", residualBuckets).
				Observe((c.Upper - c.Measured) / c.Upper)
		}
		if !c.Within {
			if err := health.Violate(health.Event{
				Check:  "bounds.sim_window",
				Tree:   treeLabel,
				Node:   c.Node,
				Detail: "simulated 50% crossing escapes the guaranteed [lower, upper] window",
				Values: map[string]health.F{
					"lower": health.F(c.Lower), "measured": health.F(c.Measured),
					"upper": health.F(c.Upper), "slack": health.F(c.Slack),
				},
			}); err != nil {
				return nil, err
			}
		}
		checks = append(checks, c)
	}
	telemetry.C("core.sim_verifications").Inc()
	return checks, nil
}

// residualBuckets bound the relative sim-vs-bound residual
// (upper - measured) / upper in [0, 1]; the underflow bucket collects
// violations.
var residualBuckets = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1}

// defaultVerifyDT mirrors sim.Run's default step: the estimated
// settling horizon divided by 4096.
func defaultVerifyDT(a *Analysis, in signal.Signal) float64 {
	maxTD := 0.0
	for i := range a.Bounds {
		if td := a.Bounds[i].Elmore; td > maxTD {
			maxTD = td
		}
	}
	return (10*maxTD + 2*in.RiseTime()) / 4096
}
