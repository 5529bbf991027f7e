package core

import (
	"fmt"
	"math"

	"elmore/internal/health"
	"elmore/internal/moments"
	"elmore/internal/telemetry"
)

// Reanalyze refreshes the per-node bounds of this analysis from an
// incremental moment engine after what-if perturbations, recomputing
// only the requested sinks instead of re-running the full Analyze
// pipeline. It is the read side of the optimizer inner loop: perturb
// the engine, Reanalyze the sinks the objective reads, decide, Revert
// or Commit.
//
// sinks lists the tree node indices to refresh; nil means "every node
// whose bounds moved since the last Reanalyze": the engine's drained
// moved set (conservative, never missing a moved node), widened to all
// nodes when the tree-level T_P changed — T_P enters the PRH fields of
// every entry, including components whose moments are untouched. The
// tree-level T_P is always refreshed. Each refreshed Bounds entry is built with
// exactly the Analyze formulas from the engine's state, and the engine
// serves values bit-identical to a full recompute, so a refreshed entry
// is bit-identical to the entry a fresh Analyze of a tree carrying the
// engine's values would produce.
//
// What Reanalyze does NOT do: entries outside the sink set keep their
// old bounds (in particular, if a perturbation changed T_P, the
// PRHTmin/PRHTmax fields of un-refreshed entries still reflect the old
// T_P — pass the sinks you read, or nil to get the moved hull), and the
// Moments() accessor keeps describing the original full analysis.
// WindowAt reads the T_R of each refreshed entry from this call, so it
// describes the same circuit as the entry. Refreshed entries pass
// through the same health checks as Analyze.
//
// The sinks' μ2, μ3 and T_R come from one Incremental.PathStatsInto
// call: a walk per sink when the sinks are few, one shared pass over
// their components when they are many. After its first call Reanalyze
// allocates nothing, as long as no call lists more sinks than an
// earlier one.
//
// The engine must be bound to this analysis' tree (same node set); the
// association is sanity-checked by node count.
func (a *Analysis) Reanalyze(inc *moments.Incremental, sinks []int) error {
	if inc == nil {
		return fmt.Errorf("core: Reanalyze needs a non-nil incremental engine")
	}
	if it := inc.Tree(); it.N() != a.Tree.N() {
		return fmt.Errorf("core: engine tree has %d nodes, analysis tree has %d", it.N(), a.Tree.N())
	}
	for _, i := range sinks {
		if i < 0 || i >= len(a.Bounds) {
			return fmt.Errorf("core: Reanalyze sink index %d out of range [0,%d)", i, len(a.Bounds))
		}
	}
	nilSinks := sinks == nil
	if nilSinks {
		sinks = inc.DrainMoved(a.sinkBuf[:0])
		a.sinkBuf = sinks
	}
	oldTP := a.TP
	a.TP = inc.TP()
	if nilSinks && math.Float64bits(oldTP) != math.Float64bits(a.TP) && len(sinks) < len(a.Bounds) {
		// T_P is tree-level: when it moves, the PRH fields of every
		// node move with it, even in components whose moments are
		// untouched (multi-root forests). Widen the nil-sink mode to
		// every node so no entry is left stale.
		sinks = sinks[:0]
		for i := range a.Bounds {
			sinks = append(sinks, i)
		}
		a.sinkBuf = sinks
	}
	if a.tr == nil {
		a.tr = make([]float64, len(a.Bounds))
		for i := range a.tr {
			a.tr[i] = a.ms.TR(i)
		}
	}
	m := len(sinks)
	if cap(a.statBuf) < 3*m {
		a.statBuf = make([]float64, 3*m)
	}
	mu2, mu3, tr := a.statBuf[:m], a.statBuf[m:2*m], a.statBuf[2*m:3*m]
	inc.PathStatsInto(sinks, mu2, mu3, tr)
	var treeLabel string
	if health.Enabled() {
		treeLabel = health.TreeLabel(a.Tree.N(), a.Tree.Fingerprint())
	}
	for x, i := range sinks {
		a.Bounds[i], a.tr[i] = newBounds(a.Tree, i, inc.Elmore(i), mu2[x], mu3[x], a.TP, tr[x]), tr[x]
		if err := checkBounds(treeLabel, &a.Bounds[i]); err != nil {
			return err
		}
	}
	telemetry.C("core.reanalyses").Inc()
	telemetry.C("core.nodes_reanalyzed").Add(int64(len(sinks)))
	return nil
}
