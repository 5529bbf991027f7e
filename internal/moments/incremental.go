package moments

import (
	"fmt"
	"math"

	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Incremental is a delta-update engine for the order-3 moment and PRH
// state of one RC tree: it owns mutable copies of the element values
// plus every derived per-node array (downstream capacitance, m1..m3,
// path resistance, T_P) and re-sweeps only what an edit moves. It
// exists so an optimizer's perturb → evaluate → revert inner loop stops
// paying the full Compile-rebuild + Compute + ComputePRH + per-node
// bound rebuild an rctree.Tree mutation costs (SetR/SetC invalidate the
// whole compiled plan), and pays only for what actually has to move.
//
// Every value the engine serves is bit-identical to a fresh
// moments.Compute / ComputePRH on a tree carrying the same element
// values: its two range kernels, gather and step, are the exact
// per-node expressions of the full sweeps, and each node reads its
// children in the same order, so IEEE-754 non-associativity never
// shows.
//
// The state is numbered in the tree's depth-first pre-order, where the
// subtree of node k is the index range [k, end[k]) and each root
// component is one range too. What an edit moves is one range per
// stage:
//
//   - ΔC at k moves the downstream capacitance w1 on k's root path,
//     re-gathered at once, and m1 over k's whole component (m1 at the
//     root reads the root's downstream capacitance).
//   - ΔR at k moves m1 and the path resistance only in [k, end[k]).
//   - Either moves orders 2 and 3 over k's component. Those do not
//     localize: m2/m3 at any node depend on m1 at every node of the
//     component (through the subtree sums of C·m1), so an exact
//     order-2+ update is Ω(component). The win there is the constant
//     factor: in-place range sweeps with no plan rebuild, no
//     allocation, no scatter to user order and no per-node bound
//     reconstruction.
//
// Each stage keeps one pending range, the hull of the ranges its edits
// moved, and sweeps it on the first query that reads the stage, so any
// number of SetR/SetC between queries cost one sweep per stage.
// Re-evaluating a clean node inside a hull rewrites the bits it already
// has: hull slack costs time, never correctness.
//
// An Incremental is NOT safe for concurrent use; it is a single
// optimizer's working state, like a moments.Arena. The engine never
// mutates the bound tree: SetR/SetC are what-if edits on the engine's
// own arrays, Revert undoes everything since the last Commit, Commit
// accepts the current values as the new revert baseline, and SyncTree
// writes them back into the tree in one bulk mutation when the
// optimizer is done.
type Incremental struct {
	tree *rctree.Tree
	n    int

	// Pre-order layout: par[k] is k's parent (or rctree.Source), the
	// subtree of k is [k, end[k]), and root[k] is the root of k's
	// component. The children of k are k+1, end[k+1], ... while below
	// end[k], in the tree's child order. toUser/fromUser map pre-order
	// to tree indices and back; bfs lists the pre-order index of each
	// compiled node in compiled order, the order ComputePRH sums T_P in.
	par, end, root   []int32
	toUser, fromUser []int32
	bfs              []int32

	// Element values and derived per-node state, in pre-order. w1 is
	// both the order-1 upward sum and the downstream capacitance (m0 = 1
	// makes them the same array); m1..m3 are the transfer-function
	// moments; rkk is the source-to-node path resistance.
	r, c   []float64
	w1, m1 []float64
	w2, m2 []float64
	w3, m3 []float64
	rkk    []float64
	tp     float64

	// Pending ranges: m1, rkk, and w2/m2/w3/m3 to re-sweep; tpStale
	// marks T_P for a re-sum. w1 is never pending. moved is the hull of
	// every node whose moments moved since the last DrainMoved.
	pend1, pendR, pend3 span
	tpStale             bool
	moved               span

	// undo is the revert log: every applied edit since the last Commit,
	// oldest first.
	undo    []valueEdit
	pathBuf []int32 // TR scratch: a sink's root path

	stats IncrementalStats
}

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
	Flushes       int64 // pending ranges swept (one per stage per sweep)
	NodesTouched  int64 // per-node kernel evaluations, one per node per pass
	FullFallbacks int64 // always 0; kept because perfbench reads it
	Reverts       int64
	Commits       int64
}

// NewIncremental binds a delta-update engine to t, snapshotting its
// current element values and computing the full order-3 moment and PRH
// state once with the engine's kernels over the whole tree. The engine
// does not mutate t afterwards (see SyncTree); conversely, mutating t
// directly while an engine is bound to it leaves the engine describing
// the values it was built from.
func NewIncremental(t *rctree.Tree) (*Incremental, error) {
	if t == nil || t.N() == 0 {
		return nil, fmt.Errorf("moments: NewIncremental needs a non-empty tree")
	}
	n := t.N()
	idx := make([]int32, 6*n)
	back := make([]float64, 9*n)
	inc := &Incremental{
		tree:     t,
		n:        n,
		par:      idx[0*n : 1*n : 1*n],
		end:      idx[1*n : 2*n : 2*n],
		root:     idx[2*n : 3*n : 3*n],
		toUser:   idx[3*n : 4*n : 4*n],
		fromUser: idx[4*n : 5*n : 5*n],
		bfs:      idx[5*n : 6*n : 6*n],
		r:        back[0*n : 1*n : 1*n],
		c:        back[1*n : 2*n : 2*n],
		w1:       back[2*n : 3*n : 3*n],
		m1:       back[3*n : 4*n : 4*n],
		w2:       back[4*n : 5*n : 5*n],
		m2:       back[5*n : 6*n : 6*n],
		w3:       back[6*n : 7*n : 7*n],
		m3:       back[7*n : 8*n : 8*n],
		rkk:      back[8*n : 9*n : 9*n],
		tpStale:  true,
	}
	for k, u := range t.PreOrder() {
		inc.toUser[k] = int32(u)
		inc.fromUser[u] = int32(k)
	}
	for k, u := range inc.toUser {
		inc.r[k], inc.c[k], inc.end[k] = t.R(int(u)), t.C(int(u)), int32(k+1)
		inc.par[k], inc.root[k] = rctree.Source, int32(k)
		if p := t.Parent(int(u)); p != rctree.Source {
			inc.par[k] = inc.fromUser[p]
			inc.root[k] = inc.root[inc.par[k]]
		}
	}
	for k := n - 1; k >= 0; k-- {
		if p := inc.par[k]; p != rctree.Source {
			inc.end[p] = max(inc.end[p], inc.end[k])
		}
	}
	for ci, u := range rctree.Compile(t).ToUser {
		inc.bfs[ci] = inc.fromUser[u]
	}
	all := int32(n)
	inc.gather(inc.w1, nil, 0, all)
	inc.step(inc.m1, inc.w1, 0, all)
	inc.step(inc.rkk, nil, 0, all)
	inc.sweep3(0, all)
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
	inc.set(inc.fromUser[i], true, v)
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
	inc.set(inc.fromUser[i], false, v)
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

// moves records what an edit at k moves: w1 is re-gathered along k's
// root path at once; m1, rkk and orders 2-3 get their pending ranges
// extended, T_P goes stale and k's component joins the moved set.
func (inc *Incremental) moves(k int32, isR bool) {
	rt := inc.root[k]
	if isR {
		inc.pend1.cover(k, inc.end[k])
		inc.pendR.cover(k, inc.end[k])
	} else {
		for j := k; j != rctree.Source; j = inc.par[j] {
			inc.gather(inc.w1, nil, j, j+1)
		}
		inc.pend1.cover(rt, inc.end[rt])
	}
	inc.pend3.cover(rt, inc.end[rt])
	inc.moved.cover(rt, inc.end[rt])
	inc.tpStale = true
}

// Revert undoes every edit applied since the last Commit (or since
// construction), restoring the engine to its baseline values. Reverted
// ranges re-sweep lazily on the next query, and re-sweeping reproduces
// the baseline bits exactly: the kernels are deterministic in the
// values, which are bit-restored.
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
// optimization: after it, a fresh Compile/Analyze of the tree describes
// exactly the engine's state.
func (inc *Incremental) SyncTree() error {
	r := make([]float64, inc.n)
	c := make([]float64, inc.n)
	for k, u := range inc.toUser {
		r[u] = inc.r[k]
		c[u] = inc.c[k]
	}
	return inc.tree.SetValues(r, c)
}

// --- Queries (tree-indexed, bit-identical to Set / PRHTerms) ---

// Elmore returns the Elmore delay T_D(i) = -m1(i), sweeping m1 only.
func (inc *Incremental) Elmore(i int) float64 {
	inc.flush1()
	return -inc.m1[inc.fromUser[i]]
}

// DownstreamC returns the total capacitance of the subtree rooted at i.
func (inc *Incremental) DownstreamC(i int) float64 {
	return inc.w1[inc.fromUser[i]]
}

// PathResistance returns R_ii, the source-to-i path resistance.
func (inc *Incremental) PathResistance(i int) float64 {
	inc.flushR()
	return inc.rkk[inc.fromUser[i]]
}

// R and C return the engine's current (possibly uncommitted) element
// values at node i.
func (inc *Incremental) R(i int) float64 { return inc.r[inc.fromUser[i]] }
func (inc *Incremental) C(i int) float64 { return inc.c[inc.fromUser[i]] }

// TotalC returns the sum of the engine's capacitances — the area-side
// quantity sizing loops budget against. (Summed over root subtrees;
// the grouping differs from rctree.Tree.TotalC, so the two can differ
// in the last ulp.)
func (inc *Incremental) TotalC() float64 {
	var sum float64
	for k := int32(0); k < int32(inc.n); k = inc.end[k] {
		sum += inc.w1[k]
	}
	return sum
}

// M returns the moment m_q(i) for q in [0,3].
func (inc *Incremental) M(q, i int) float64 {
	if q < 0 || q > 3 {
		panic(fmt.Sprintf("moments: incremental order %d out of range [0,3]", q))
	}
	if i < 0 || i >= inc.n {
		panic(fmt.Sprintf("moments: node index %d out of range [0,%d)", i, inc.n))
	}
	k := inc.fromUser[i]
	switch q {
	case 0:
		return 1
	case 1:
		inc.flush1()
		return inc.m1[k]
	case 2:
		inc.flush3()
		return inc.m2[k]
	default:
		inc.flush3()
		return inc.m3[k]
	}
}

// Mu2 returns the impulse-response variance at node i (see Set.Mu2).
func (inc *Incremental) Mu2(i int) float64 {
	inc.flush3()
	k := inc.fromUser[i]
	return mu2(inc.m1[k], inc.m2[k])
}

// Mu3 returns the third central moment at node i (see Set.Mu3).
func (inc *Incremental) Mu3(i int) float64 {
	inc.flush3()
	k := inc.fromUser[i]
	return mu3(inc.m1[k], inc.m2[k], inc.m3[k])
}

// Sigma returns sqrt(mu2) under the Set.Sigma degenerate contract.
func (inc *Incremental) Sigma(i int) float64 { return sigma(inc.Mu2(i), inc.tree, i) }

// Skewness returns mu3 / mu2^(3/2), zero at zero-variance nodes.
func (inc *Incremental) Skewness(i int) float64 {
	return skewness(inc.Mu2(i), func() float64 { return inc.Mu3(i) })
}

// TP returns the Penfield-Rubinstein T_P = sum_k R_kk C_k, summed in
// compiled order like ComputePRH.
func (inc *Incremental) TP() float64 {
	inc.flushR()
	if inc.tpStale {
		var tp float64
		for _, k := range inc.bfs {
			tp += inc.rkk[k] * inc.c[k]
		}
		inc.tp, inc.tpStale = tp, false
	}
	return inc.tp
}

// TR returns T_R(i) = sum_k R_ki^2 C_k / R_ii. It evaluates the
// prhInto recurrence S(j) = S(p) + r_j (R_jj + R_pp) Cdown(j) down the
// root path of i over the engine's arrays — O(depth(i)) per call, the
// same expressions in the same order, so the bits match PRHTerms.TR.
func (inc *Incremental) TR(i int) float64 {
	inc.flushR()
	path := inc.pathBuf[:0]
	for j := inc.fromUser[i]; j != rctree.Source; j = inc.par[j] {
		path = append(path, j)
	}
	inc.pathBuf = path[:0]
	var rp, sp float64
	for k := len(path) - 1; k >= 0; k-- {
		j := path[k]
		rjj := inc.rkk[j]
		sp += inc.r[j] * (rjj + rp) * inc.w1[j]
		rp = rjj
	}
	return sp / rp
}

// DrainMoved appends to dst the tree indices of every node whose
// moments may have moved since the last drain (conservatively: the hull
// of the edited components) and resets the moved set. It does not
// flush; the queries that follow do. It backs core.Analysis.Reanalyze's
// "re-bound what moved" mode.
func (inc *Incremental) DrainMoved(dst []int) []int {
	for k := inc.moved.lo; k < inc.moved.hi; k++ {
		dst = append(dst, int(inc.toUser[k]))
	}
	inc.moved = span{}
	return dst
}

// --- Range sweeps ---

// flush1 sweeps m1's pending range.
func (inc *Incremental) flush1() {
	if s := inc.pend1; !s.empty() {
		inc.pend1 = span{}
		inc.step(inc.m1, inc.w1, s.lo, s.hi)
		inc.count(s, 1)
	}
}

// flushR sweeps the path resistance's pending range.
func (inc *Incremental) flushR() {
	if s := inc.pendR; !s.empty() {
		inc.pendR = span{}
		inc.step(inc.rkk, nil, s.lo, s.hi)
		inc.count(s, 1)
	}
}

// flush3 sweeps m1, then the order-2/3 pending range. That range is a
// union of whole components, so every gather finds its children inside
// it.
func (inc *Incremental) flush3() {
	inc.flush1()
	if s := inc.pend3; !s.empty() {
		inc.pend3 = span{}
		inc.sweep3(s.lo, s.hi)
		inc.count(s, 4)
	}
}

func (inc *Incremental) sweep3(lo, hi int32) {
	inc.gather(inc.w2, inc.m1, lo, hi)
	inc.step(inc.m2, inc.w2, lo, hi)
	inc.gather(inc.w3, inc.m2, lo, hi)
	inc.step(inc.m3, inc.w3, lo, hi)
}

func (inc *Incremental) count(s span, passes int) {
	touched := int64(passes) * int64(s.hi-s.lo)
	inc.stats.Flushes++
	inc.stats.NodesTouched += touched
	telemetry.C("incremental.flushes").Inc()
	telemetry.C("incremental.nodes_touched").Add(touched)
}

// gather sets w[k] = c[k]·m[k] + the sum of w over k's children (c[k]
// alone when m is nil) for k from hi-1 down to lo, children first: the
// upward kernel of computeInto. Every child of a node in [lo, hi) that
// is not itself up to date must lie inside the range.
func (inc *Incremental) gather(w, m []float64, lo, hi int32) {
	c, end := inc.c, inc.end
	for k := hi - 1; k >= lo; k-- {
		d := c[k]
		if m != nil {
			d = c[k] * m[k]
		}
		for ch := k + 1; ch < end[k]; ch = end[ch] {
			d += w[ch]
		}
		w[k] = d
	}
}

// step sets m[k] = -(r[k]·w[k]) + m[parent] for k from lo up to hi-1,
// parents first: the downward kernel of computeInto. With w nil it is
// the path-resistance step of prhInto, m[k] = r[k] + m[parent]. A
// parent outside [lo, hi) must be up to date.
func (inc *Incremental) step(m, w []float64, lo, hi int32) {
	r, par := inc.r, inc.par
	for k := lo; k < hi; k++ {
		v := r[k]
		if w != nil {
			v = -(r[k] * w[k])
		}
		if p := par[k]; p != rctree.Source {
			v += m[p]
		}
		m[k] = v
	}
}
