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
// Refreshed entries pass through the same health checks as Analyze.
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
	nilSinks := sinks == nil
	if nilSinks {
		sinks = inc.DrainMoved(nil)
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
	}
	var treeLabel string
	if health.Enabled() {
		treeLabel = health.TreeLabel(a.Tree.N(), a.Tree.Fingerprint())
	}
	for _, i := range sinks {
		if i < 0 || i >= len(a.Bounds) {
			return fmt.Errorf("core: Reanalyze sink index %d out of range [0,%d)", i, len(a.Bounds))
		}
		mu2, mu3, tr := inc.PathStats(i) // one O(depth) walk per sink
		b := newBounds(a.Tree, i, inc.Elmore(i), mu2, mu3, a.TP, tr)
		a.Bounds[i] = b
		if err := checkBounds(treeLabel, &b); err != nil {
			return err
		}
	}
	telemetry.C("core.reanalyses").Inc()
	telemetry.C("core.nodes_reanalyzed").Add(int64(len(sinks)))
	return nil
}
