package moments

import (
	"fmt"
	"math"
	"slices"

	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Incremental is a delta-update engine for the moment and PRH state of
// one RC tree: it owns mutable copies of the element values plus the
// per-node state the queries read (admittance moments y1..y3, Elmore
// delay, path resistance, T_P) and recomputes only what an edit moves.
// It exists so an optimizer's perturb → evaluate → revert inner loop
// stops paying the full Compute + per-node bound rebuild a fresh
// analysis of a mutated rctree.Tree costs.
//
// Every value the engine serves is bit-identical to a fresh Compute on
// a tree carrying the same element values: it evaluates the same
// per-node expressions (gather, step, stepTD and stepR), and each node
// reads its children in the same order, so IEEE-754 non-associativity
// never shows.
//
// The state is numbered in the tree's depth-first pre-order, where the
// subtree of node k is the index range [k, end[k]) and each root
// component is one range too. The admittance y at a node depends only
// on its subtree, and T_D, μ2, μ3 and T_R at a node only on y along its
// root path. So:
//
//   - ΔC at k moves y on k's root path, regathered at once from k up,
//     and T_D over k's whole component (every node's path meets the
//     root).
//   - ΔR at k moves y2 and y3 on the root path above k, and T_D and the
//     path resistance only in [k, end[k]). y1 does not read r, and y1 is
//     all that Elmore, TotalC and DownstreamC read, so the root path is
//     regathered lazily: k's parent is marked stale, and PathStats walks
//     up from every stale mark before it reads y2 and y3.
//   - μ2, μ3 and T_R at a node are answered by PathStats with one walk
//     down the node's root path, O(depth). PathStatsInto answers many
//     sinks at once with whichever costs fewer steps: one walk per sink,
//     or one pass of the same step over the components that hold them.
//
// T_D and the path resistance each keep one pending range, the hull of
// the ranges edits moved, swept on the first query that reads them, so
// any number of SetR/SetC between queries cost one sweep each; the
// T_D range serves scans of many sinks (a worst-leaf objective).
// Re-evaluating a clean node inside a hull rewrites the bits it already
// has: hull slack costs time, never correctness.
//
// An Incremental is NOT safe for concurrent use; it is a single
// optimizer's working state. The engine never mutates the bound tree:
// SetR/SetC are what-if edits on the engine's own arrays, Revert undoes
// everything since the last Commit, Commit accepts the current values
// as the new revert baseline, and SyncTree writes them back into the
// tree in one bulk mutation when the optimizer is done.
type Incremental struct {
	tree *rctree.Tree
	n    int

	// Pre-order layout: par[k] is k's parent (or rctree.Source), the
	// subtree of k is [k, end[k]), root[k] is the root of k's component
	// and depth[k] the number of resistors above k's own. The children of
	// k are k+1, end[k+1], ... while below end[k], in the tree's child
	// order. treeIdx maps pre-order to tree indices and preIdx maps back.
	par, end, root, depth []int32
	treeIdx, preIdx       []int32

	// Element values and derived per-node state, in pre-order. y1..y3
	// are the admittance moments looking into each node (y1 is the
	// downstream capacitance), td the Elmore delay and rkk the
	// source-to-node path resistance.
	r, c       []float64
	y1, y2, y3 []float64
	td, rkk    []float64
	tp         float64

	// Pending ranges of td and rkk to re-sweep; tpStale marks T_P for a
	// re-sum. moved is the hull of every node whose moments moved since
	// the last DrainMoved. pendY lists the starts of root-path regathers
	// that ΔR edits left for PathStats, each at most once (staleY marks
	// the listed nodes), so it never holds more than n; y1 is never
	// pending.
	pendTD, pendR span
	tpStale       bool
	moved         span
	pendY         []int32
	staleY        []bool

	// undo is the revert log: every applied edit since the last Commit,
	// oldest first.
	undo    []valueEdit
	pathBuf []int32 // PathStats scratch: a node's root path

	// PathStatsInto's scratch, sized on first use: a mark per component
	// root and, for the shared pass, step's state per depth along the
	// current root path and each sink node's output slot plus one.
	marked []bool
	stack  []pathState
	slot   []int32

	stats IncrementalStats
}

// pathState is what step carries from a node to its children, less T_D.
type pathState struct{ mu2, mu3, rii, s float64 }

// span is a [lo, hi) range of pre-order indices; the zero value is
// empty.
type span struct{ lo, hi int32 }

func (s span) empty() bool { return s.lo >= s.hi }

// cover extends s to the hull of s and [lo, hi).
func (s *span) cover(lo, hi int32) {
	if s.empty() {
		*s = span{lo, hi}
		return
	}
	s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
}

type valueEdit struct {
	node int32 // pre-order index
	isR  bool
	old  float64
}

// IncrementalStats counts the engine's work since construction.
type IncrementalStats struct {
	Sets          int64 // applied SetR/SetC edits (no-op value repeats excluded)
	Flushes       int64 // pending ranges swept (T_D or path resistance)
	NodesTouched  int64 // nodes swept by flushes, one per node per range
	Gathered      int64 // nodes whose admittance an edit, a revert or a PathStats regathered
	Walked        int64 // root-path nodes visited by PathStats and PathStatsInto's walks
	Swept         int64 // nodes visited by PathStatsInto's shared passes
	FullFallbacks int64 // always 0; kept because perfbench reads it
	Reverts       int64
	Commits       int64
}

// NewIncremental binds a delta-update engine to t, snapshotting its
// current element values and computing the admittance, T_D and path
// resistance state once over the whole tree with the engine's kernels.
// The engine does not mutate t afterwards (see SyncTree); conversely,
// mutating t directly while an engine is bound to it leaves the engine
// describing the values it was built from.
func NewIncremental(t *rctree.Tree) (*Incremental, error) {
	if t == nil || t.N() == 0 {
		return nil, fmt.Errorf("moments: NewIncremental needs a non-empty tree")
	}
	n := t.N()
	idx := make([]int32, 6*n)
	back := make([]float64, 7*n)
	inc := &Incremental{
		tree:    t,
		n:       n,
		par:     idx[0*n : 1*n : 1*n],
		end:     idx[1*n : 2*n : 2*n],
		root:    idx[2*n : 3*n : 3*n],
		depth:   idx[3*n : 4*n : 4*n],
		treeIdx: idx[4*n : 5*n : 5*n],
		preIdx:  idx[5*n : 6*n : 6*n],
		r:       back[0*n : 1*n : 1*n],
		c:       back[1*n : 2*n : 2*n],
		y1:      back[2*n : 3*n : 3*n],
		y2:      back[3*n : 4*n : 4*n],
		y3:      back[4*n : 5*n : 5*n],
		td:      back[5*n : 6*n : 6*n],
		rkk:     back[6*n : 7*n : 7*n],
		staleY:  make([]bool, n),
		tpStale: true,
	}
	for k, u := range t.PreOrder() {
		inc.treeIdx[k] = int32(u)
		inc.preIdx[u] = int32(k)
	}
	for k, u := range inc.treeIdx {
		inc.r[k], inc.c[k], inc.end[k] = t.R(int(u)), t.C(int(u)), int32(k+1)
		inc.par[k], inc.root[k] = rctree.Source, int32(k)
		if p := t.Parent(int(u)); p != rctree.Source {
			inc.par[k] = inc.preIdx[p]
			inc.root[k] = inc.root[inc.par[k]]
			inc.depth[k] = inc.depth[inc.par[k]] + 1
		}
	}
	for k := n - 1; k >= 0; k-- {
		if p := inc.par[k]; p != rctree.Source {
			inc.end[p] = max(inc.end[p], inc.end[k])
		}
	}
	for k := int32(n - 1); k >= 0; k-- {
		inc.regather(k)
	}
	all := span{0, int32(n)}
	inc.sweepTD(all)
	inc.sweepR(all)
	telemetry.C("incremental.binds").Inc()
	return inc, nil
}

// Tree returns the tree the engine is bound to. Its element values
// reflect the engine's state only up to the last SyncTree.
func (inc *Incremental) Tree() *rctree.Tree { return inc.tree }

// Stats returns the engine's work counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// --- Perturbation API ---

// SetR updates the engine's resistance at node i (tree index). The
// value is validated under the same contract as rctree.Tree.SetR. The
// bound tree is not touched.
func (inc *Incremental) SetR(i int, v float64) error {
	if err := inc.checkIndex(i); err != nil {
		return err
	}
	if err := rctree.ValidateR(v); err != nil {
		return fmt.Errorf("moments: incremental node %q: %w", inc.tree.Name(i), err)
	}
	inc.set(inc.preIdx[i], true, v)
	return nil
}

// SetC updates the engine's grounded capacitance at node i (tree
// index), validated like rctree.Tree.SetC.
func (inc *Incremental) SetC(i int, v float64) error {
	if err := inc.checkIndex(i); err != nil {
		return err
	}
	if err := rctree.ValidateC(v); err != nil {
		return fmt.Errorf("moments: incremental node %q: %w", inc.tree.Name(i), err)
	}
	inc.set(inc.preIdx[i], false, v)
	return nil
}

func (inc *Incremental) checkIndex(i int) error {
	if i < 0 || i >= inc.n {
		return fmt.Errorf("moments: incremental node index %d out of range [0,%d)", i, inc.n)
	}
	return nil
}

func (inc *Incremental) set(k int32, isR bool, v float64) {
	arr := inc.c
	if isR {
		arr = inc.r
	}
	old := arr[k]
	if math.Float64bits(old) == math.Float64bits(v) {
		return // value-identical edit: nothing can move
	}
	arr[k] = v
	inc.undo = append(inc.undo, valueEdit{node: k, isR: isR, old: old})
	inc.moves(k, isR)
	inc.stats.Sets++
	telemetry.C("incremental.sets").Inc()
}

// moves records what an edit at k moves: y is regathered on the root
// path, at once from k for ΔC and lazily from k's parent for ΔR (whose
// y does not read r_k), the T_D and path-resistance ranges are
// extended, T_P goes stale and k's component joins the moved set.
func (inc *Incremental) moves(k int32, isR bool) {
	rt := inc.root[k]
	if isR {
		inc.pendTD.cover(k, inc.end[k])
		inc.pendR.cover(k, inc.end[k])
		if p := inc.par[k]; p != rctree.Source && !inc.staleY[p] {
			inc.staleY[p] = true
			inc.pendY = append(inc.pendY, p)
		}
	} else {
		inc.pendTD.cover(rt, inc.end[rt])
		inc.regatherPath(k)
	}
	inc.moved.cover(rt, inc.end[rt])
	inc.tpStale = true
}

// regatherPath regathers y on the root path from j up.
func (inc *Incremental) regatherPath(j int32) {
	for ; j != rctree.Source; j = inc.par[j] {
		inc.regather(j)
		inc.stats.Gathered++
	}
}

// flushY runs the root-path regathers that ΔR edits left pending. Any
// order gives a fresh sweep's bits: a stale node's ancestors all lie on
// its own walk, so each node's last regather comes after the last one of
// every stale child.
func (inc *Incremental) flushY() {
	for _, j := range inc.pendY {
		inc.staleY[j] = false
		inc.regatherPath(j)
	}
	inc.pendY = inc.pendY[:0]
}

// Revert undoes every edit applied since the last Commit (or since
// construction), restoring the engine to its baseline values. Each
// undone edit regathers its root path from exact children (a ΔR one
// lazily, as SetR does), which reproduces a fresh sweep's bits; T_D and
// the path resistance re-sweep lazily on the next query.
func (inc *Incremental) Revert() {
	for k := len(inc.undo) - 1; k >= 0; k-- {
		e := inc.undo[k]
		arr := inc.c
		if e.isR {
			arr = inc.r
		}
		arr[e.node] = e.old
		inc.moves(e.node, e.isR)
	}
	inc.undo = inc.undo[:0]
	inc.stats.Reverts++
	telemetry.C("incremental.reverts").Inc()
}

// Commit accepts the current values as the new revert baseline: it
// clears the revert log and nothing else, so it is O(1) and does not
// force a flush or touch the bound tree (see SyncTree).
func (inc *Incremental) Commit() {
	inc.undo = inc.undo[:0]
	inc.stats.Commits++
	telemetry.C("incremental.commits").Inc()
}

// SyncTree writes the engine's current element values back into the
// bound tree as one bulk mutation (a single generation bump /
// fingerprint change). It is the hand-off at the end of an
// optimization: after it, a fresh Analyze of the tree describes
// exactly the engine's state.
func (inc *Incremental) SyncTree() error {
	r := make([]float64, inc.n)
	c := make([]float64, inc.n)
	for k, u := range inc.treeIdx {
		r[u] = inc.r[k]
		c[u] = inc.c[k]
	}
	return inc.tree.SetValues(r, c)
}

// --- Queries (tree-indexed, bit-identical to Set) ---

// Elmore returns the Elmore delay T_D(i), sweeping T_D's pending range
// first. A clean read is a range check and two loads, small enough to
// inline into a caller's scan of many sinks; the sweep is out of line.
func (inc *Incremental) Elmore(i int) float64 {
	if !inc.pendTD.empty() {
		inc.flushTD()
	}
	return inc.td[inc.preIdx[i]]
}

// PathStats returns μ2 and μ3 of the impulse response and the PRH term
// T_R at node i, from one walk down i's root path with Compute's
// per-node step, so the bits match Set.Mu2, Set.Mu3 and Set.TR.
// O(depth(i)) per call, after the root-path regathers ΔR edits left
// pending.
func (inc *Incremental) PathStats(i int) (mu2, mu3, tr float64) {
	inc.flushY()
	return inc.walk(inc.preIdx[i])
}

// PathStatsInto sets mu2[x], mu3[x] and tr[x] to PathStats(sinks[x])
// for every x, bit for bit; the three slices must hold len(sinks)
// values. It takes the cheaper of two ways to run the same step
// sequence along every sink's root path: one walk per sink, Σ(depth+1)
// steps, or one pass in pre-order over each component that holds a
// sink, the components' summed size (a tie walks). Its per-node scratch
// is allocated on first use; after that a call allocates only to walk a
// root path deeper than any walked before.
func (inc *Incremental) PathStatsInto(sinks []int, mu2, mu3, tr []float64) {
	inc.flushY()
	if inc.marked == nil {
		inc.marked = make([]bool, inc.n)
	}
	walks, pass := 0, 0
	for _, i := range sinks {
		k := inc.preIdx[i]
		walks += int(inc.depth[k]) + 1
		if rt := inc.root[k]; !inc.marked[rt] {
			inc.marked[rt] = true
			pass += int(inc.end[rt] - rt)
		}
	}
	if walks <= pass {
		for x, i := range sinks {
			k := inc.preIdx[i]
			inc.marked[inc.root[k]] = false
			mu2[x], mu3[x], tr[x] = inc.walk(k)
		}
		return
	}
	if inc.slot == nil {
		inc.stack = make([]pathState, slices.Max(inc.depth)+1)
		inc.slot = make([]int32, inc.n)
	}
	for x, i := range sinks {
		inc.slot[inc.preIdx[i]] = int32(x) + 1
	}
	for _, i := range sinks {
		if rt := inc.root[inc.preIdx[i]]; inc.marked[rt] {
			inc.marked[rt] = false
			inc.sweepPaths(span{rt, inc.end[rt]}, mu2, mu3, tr)
		}
	}
	// The pass served each sink at its last listing; copy it to the
	// others and clear the slots.
	for x, i := range sinks {
		k := inc.preIdx[i]
		if j := int(inc.slot[k]) - 1; j != x {
			mu2[x], mu3[x], tr[x] = mu2[j], mu3[j], tr[j]
		} else {
			inc.slot[k] = 0
		}
	}
}

// walk runs step down k's root path from its root; y must be clean.
func (inc *Incremental) walk(k int32) (mu2, mu3, tr float64) {
	path := inc.pathBuf[:0]
	for j := k; j != rctree.Source; j = inc.par[j] {
		path = append(path, j)
	}
	inc.pathBuf = path[:0]
	var td, rp, sp float64
	for x := len(path) - 1; x >= 0; x-- {
		j := path[x]
		td, mu2, mu3, rp, sp = step(td, mu2, mu3, rp, sp, inc.r[j], Admittance{inc.y1[j], inc.y2[j], inc.y3[j]})
	}
	inc.stats.Walked += int64(len(path))
	return mu2, mu3, sp / rp
}

// DownstreamC returns the total capacitance of the subtree rooted at i.
func (inc *Incremental) DownstreamC(i int) float64 {
	return inc.y1[inc.preIdx[i]]
}

// PathResistance returns R_ii, the source-to-i path resistance,
// sweeping its pending range first; like Elmore, a clean read inlines.
func (inc *Incremental) PathResistance(i int) float64 {
	if !inc.pendR.empty() {
		inc.flushR()
	}
	return inc.rkk[inc.preIdx[i]]
}

// R and C return the engine's current (possibly uncommitted) element
// values at node i.
func (inc *Incremental) R(i int) float64 { return inc.r[inc.preIdx[i]] }
func (inc *Incremental) C(i int) float64 { return inc.c[inc.preIdx[i]] }

// TotalC returns the sum of the engine's capacitances — the area-side
// quantity sizing loops budget against. (Summed over root subtrees;
// the grouping differs from rctree.Tree.TotalC, so the two can differ
// in the last ulp.)
func (inc *Incremental) TotalC() float64 {
	var sum float64
	for k := int32(0); k < int32(inc.n); k = inc.end[k] {
		sum += inc.y1[k]
	}
	return sum
}

// TP returns the Penfield-Rubinstein T_P = sum_k R_kk C_k, summed in
// tree index order like Compute.
func (inc *Incremental) TP() float64 {
	if !inc.pendR.empty() {
		inc.flushR()
	}
	if inc.tpStale {
		var tp float64
		for _, k := range inc.preIdx {
			tp += inc.rkk[k] * inc.c[k]
		}
		inc.tp, inc.tpStale = tp, false
	}
	return inc.tp
}

// DrainMoved appends to dst the tree indices of every node whose
// moments may have moved since the last drain (conservatively: the hull
// of the edited components) and resets the moved set. It does not
// flush; the queries that follow do. It backs core.Analysis.Reanalyze's
// "re-bound what moved" mode.
func (inc *Incremental) DrainMoved(dst []int) []int {
	for k := inc.moved.lo; k < inc.moved.hi; k++ {
		dst = append(dst, int(inc.treeIdx[k]))
	}
	inc.moved = span{}
	return dst
}

// --- Kernels ---

// regather sets node k's admittance from its capacitor and its
// children's admittances, in child order: the upward kernel of Compute.
func (inc *Incremental) regather(k int32) {
	y := CapAdmittance(inc.c[k])
	for ch := k + 1; ch < inc.end[k]; ch = inc.end[ch] {
		y = gather(y, Admittance{inc.y1[ch], inc.y2[ch], inc.y3[ch]}, inc.r[ch])
	}
	inc.y1[k], inc.y2[k], inc.y3[k] = y.Y1, y.Y2, y.Y3
}

// flushTD sweeps T_D's pending range, which must not be empty: the out
// of line half of Elmore.
func (inc *Incremental) flushTD() {
	s := inc.pendTD
	inc.pendTD = span{}
	inc.sweepTD(s)
	inc.count(s)
}

// sweepTD sets T_D over s, parents first, with step's T_D expression.
// A parent outside s must be up to date. The columns are resliced to s,
// so the parent read is the loop's one bounds check.
func (inc *Incremental) sweepTD(s span) {
	par, r, y1 := inc.par[s.lo:s.hi], inc.r[s.lo:s.hi], inc.y1[s.lo:s.hi]
	all := inc.td
	td := all[s.lo:s.hi]
	for x, p := range par {
		var tdp float64
		if p != rctree.Source {
			tdp = all[p]
		}
		td[x] = stepTD(tdp, r[x], y1[x])
	}
}

// flushR sweeps the path resistance's pending range, which must not be
// empty.
func (inc *Incremental) flushR() {
	s := inc.pendR
	inc.pendR = span{}
	inc.sweepR(s)
	inc.count(s)
}

// sweepR sets R_kk over s, parents first, with step's path-resistance
// expression, resliced like sweepTD.
func (inc *Incremental) sweepR(s span) {
	par, r := inc.par[s.lo:s.hi], inc.r[s.lo:s.hi]
	all := inc.rkk
	rkk := all[s.lo:s.hi]
	for x, p := range par {
		var rp float64
		if p != rctree.Source {
			rp = all[p]
		}
		rkk[x] = stepR(rp, r[x])
	}
}

// sweepPaths runs step over the component s in pre-order and writes
// each sink node's μ2, μ3 and T_R to its output slot. stack[d] holds the
// state of the latest node at depth d; in pre-order, for a node at depth
// d+1 that is its parent, so every node steps from its parent's state as
// a walk down its root path does, and the bits are the walk's.
func (inc *Incremental) sweepPaths(s span, mu2, mu3, tr []float64) {
	depth, slot, r := inc.depth[s.lo:s.hi], inc.slot[s.lo:s.hi], inc.r[s.lo:s.hi]
	y1, y2, y3 := inc.y1[s.lo:s.hi], inc.y2[s.lo:s.hi], inc.y3[s.lo:s.hi]
	stack := inc.stack
	for x, d := range depth {
		var p pathState
		if d > 0 {
			p = stack[d-1]
		}
		_, m2, m3, rii, sv := step(0, p.mu2, p.mu3, p.rii, p.s, r[x], Admittance{y1[x], y2[x], y3[x]})
		stack[d] = pathState{m2, m3, rii, sv}
		if j := slot[x] - 1; j >= 0 {
			mu2[j], mu3[j], tr[j] = m2, m3, sv/rii
		}
	}
	inc.stats.Swept += int64(s.hi - s.lo)
}

func (inc *Incremental) count(s span) {
	touched := int64(s.hi - s.lo)
	inc.stats.Flushes++
	inc.stats.NodesTouched += touched
	telemetry.C("incremental.flushes").Inc()
	telemetry.C("incremental.nodes_touched").Add(touched)
}
