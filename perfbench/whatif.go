package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
)

const (
	whatifNodes = 10000
	// reanalyzeEvery is how many node visits pass between Reanalyze
	// calls on the sinks that moved.
	reanalyzeEvery = 64
)

// widthGrid is the candidate wire widths of the descent, as in
// cmd/optimize: R = R0/w, C = C0*w.
var widthGrid = []float64{0.5, 0.7, 1, 1.4, 2}

// whatifState is what one set-up binds: the parsed tree, the
// incremental engine on it and the analysis Reanalyze refreshes.
type whatifState struct {
	tree   *rctree.Tree
	inc    *moments.Incremental
	an     *core.Analysis
	leaves []int
	isLeaf []bool
	widths []float64 // current width multiplier per node
}

func setupWhatif(r *run) (*whatifState, error) {
	rng := rand.New(rand.NewSource(r.seed))
	n := genNet(rng, "whatif", whatifNodes, 0.5, 0)
	deck, err := netlist.ParseString(string(n.deck()))
	if err != nil {
		return nil, err
	}
	st := &whatifState{tree: deck.Tree}
	if st.inc, err = moments.NewIncremental(st.tree); err != nil {
		return nil, err
	}
	if st.an, err = core.Analyze(st.tree); err != nil {
		return nil, err
	}
	st.leaves = st.tree.Leaves()
	st.isLeaf = make([]bool, st.tree.N())
	st.widths = make([]float64, st.tree.N())
	for i := range st.widths {
		st.widths[i] = 1
	}
	for _, l := range st.leaves {
		st.isLeaf[l] = true
	}
	return st, nil
}

func runWhatif(r *run) error {
	var st *whatifState
	err := timeSetups(r, setupRepeats, func() (_ float64, err error) {
		st, err = setupWhatif(r)
		return 0, err
	}, func() error { return nil })
	if err != nil {
		return err
	}
	if !r.trace {
		rss := sampleRSS()
		d, err := descend(r, st, nil, r.seconds)
		peak := rss.Stop()
		if err != nil {
			return err
		}
		r.fail(verifyWhatif(st))
		ls := summarize(d.probeMS)
		r.attempted = d.probes
		r.e2e["peak_rss_mb"] = peak
		r.e2e["ok_frac"] = 1
		r.e2e["work_per_cpu_s"] = median(d.passCPURate)
		r.note("probes per CPU second %.0f (work_per_cpu_s); probes_per_s %.0f probes/s wall; medians of %d passes over %d nodes (%d probes in %.2fs, %d moves)", median(d.passCPURate), median(d.passRate), len(d.passRate), st.tree.N(), d.probes, d.wall.Seconds(), d.moves)
		r.note("probe latency p50 %.4f ms, p%g %.4f ms (n=%d, %d beyond)", ls.p50, ls.tailPct, ls.tail, ls.n, ls.beyond)
		r.note("worst leaf T_D %.4g s -> %.4g s", d.initialWorst, d.finalWorst)
		r.note("fail_frac 0 (%d probes)", d.probes)
		return nil
	}
	// Traced run: half the window untraced, half traced, on the same
	// engine (the descent continues from where the first half ended).
	half := r.seconds / 2
	d0, err := descend(r, st, nil, half)
	if err != nil {
		return err
	}
	s0 := st.inc.Stats()
	tr := newTracer()
	d1, err := descend(r, st, tr, half)
	if err != nil {
		return err
	}
	s1 := st.inc.Stats()
	r.fail(verifyWhatif(st))
	r.attempted = d0.probes + d1.probes
	L := r.layer
	L["incremental.set_s"] = tr.selfSeconds("incremental.set")
	L["incremental.flush_s"] = tr.selfSeconds("incremental.flush")
	L["incremental.scan_s"] = tr.selfSeconds("incremental.scan")
	L["incremental.revert_commit_s"] = tr.selfSeconds("incremental.revert") + tr.selfSeconds("incremental.commit")
	L["core.reanalyze_s"] = tr.selfSeconds("core.reanalyze")
	L["incremental.nodes_touched_per_flush"] = ratio(s1.NodesTouched-s0.NodesTouched, s1.Flushes-s0.Flushes)
	L["incremental.full_fallbacks"] = float64(s1.FullFallbacks - s0.FullFallbacks)
	L["trace.coverage"] = tr.coverage("bench.descent")
	per0 := d0.wall.Seconds() / float64(d0.probes)
	per1 := d1.wall.Seconds() / float64(d1.probes)
	L["trace.overhead_frac"] = per1/per0 - 1
	notTraced(L, "netlist.", "rctree.", "moments.", "core.", "batch.", "elmored.", "resilience.", "gen.")
	r.note("traced %d probes; spans cover %.3f of the descent", d1.probes, L["trace.coverage"])
	return writeTraces(r, tr)
}

type descent struct {
	probes, moves            int
	wall                     time.Duration
	probeMS                  []float64 // latency per probe
	passRate, passCPURate    []float64 // probes per wall and per CPU second, per pass
	initialWorst, finalWorst float64
}

// descend runs coordinate descent on wire widths in the style of
// cmd/optimize, in whole passes over the nodes until seconds have
// passed: each probe sets one node's R and C, scans the sinks for the
// worst Elmore delay, and reverts; the best feasible width of a node is
// committed. Every reanalyzeEvery visits the moved sinks are re-bounded
// with Analysis.Reanalyze. Whole passes make a run's work independent
// of where the clock stops (probes near the root cost the most). The
// widths live in st, so a second call continues the descent.
func descend(r *run, st *whatifState, tr *tracer, seconds float64) (descent, error) {
	inc, tree := st.inc, st.tree
	n := tree.N()
	budget := 1.1 * st.an.Tree.TotalC()
	worst := func() float64 {
		w := math.Inf(-1)
		for _, l := range st.leaves {
			if d := inc.Elmore(l); d > w {
				w = d
			}
		}
		return w
	}
	var d descent
	d.initialWorst = worst()
	best := d.initialWorst
	var moved []int
	sinks := make([]int, 0, len(st.leaves))
	start := time.Now()
	stop := start.Add(time.Duration(seconds * float64(time.Second)))
	tr.begin("bench.descent", "")
	defer tr.end()
	passStart, passCPU, passFirst := start, cpuSeconds(), 0
	for visit := 0; ; visit++ {
		if visit > 0 && visit%n == 0 {
			now, cpu := time.Now(), cpuSeconds()
			probes := float64(len(d.probeMS) - passFirst)
			d.passRate = append(d.passRate, probes/now.Sub(passStart).Seconds())
			d.passCPURate = append(d.passCPURate, probes/(cpu-passCPU))
			passStart, passCPU, passFirst = now, cpu, len(d.probeMS)
			if !now.Before(stop) {
				break
			}
		}
		if visit%reanalyzeEvery == 0 {
			if r.ctx.Err() != nil {
				return d, r.ctx.Err()
			}
			tr.begin("core.reanalyze", "")
			moved = inc.DrainMoved(moved[:0])
			sinks = sinks[:0]
			for _, i := range moved {
				if st.isLeaf[i] {
					sinks = append(sinks, i)
				}
			}
			err := st.an.Reanalyze(inc, sinks)
			tr.end()
			if err != nil {
				return d, err
			}
		}
		i := visit % n
		r0, c0 := tree.R(i), tree.C(i)
		cur := st.widths[i]
		bestW, bestD := cur, best
		for _, w := range widthGrid {
			if w == cur {
				continue
			}
			id := ""
			if tr != nil {
				id = fmt.Sprintf("%d/%g", i, w)
			}
			t0 := time.Now()
			tr.begin("incremental.set", id)
			if err := inc.SetR(i, r0/w); err != nil {
				return d, err
			}
			if err := inc.SetC(i, c0*w); err != nil {
				return d, err
			}
			tr.end()
			// The first read after an edit runs the engine's lazy
			// order-1 flush; the scan then reads clean state.
			tr.begin("incremental.flush", id)
			inc.Elmore(i)
			tr.end()
			tr.begin("incremental.scan", id)
			dw := worst()
			feasible := inc.TotalC() <= budget
			tr.end()
			tr.begin("incremental.revert", id)
			inc.Revert()
			tr.end()
			d.probeMS = append(d.probeMS, float64(time.Since(t0))/1e6)
			d.probes++
			if feasible && dw < bestD {
				bestD, bestW = dw, w
			}
		}
		if bestW != cur {
			tr.begin("incremental.commit", "")
			if err := inc.SetR(i, r0/bestW); err != nil {
				return d, err
			}
			if err := inc.SetC(i, c0*bestW); err != nil {
				return d, err
			}
			inc.Commit()
			tr.end()
			st.widths[i] = bestW
			best = bestD
			d.moves++
		}
	}
	d.wall = time.Since(start)
	d.finalWorst = worst()
	return d, nil
}

// verifyWhatif ends the descent the way cmd/optimize does: write the
// engine's values back into the tree and compare a fresh core.Analyze
// bit for bit with the engine and with the analysis Reanalyze kept.
func verifyWhatif(st *whatifState) error {
	all := make([]int, st.tree.N())
	for i := range all {
		all[i] = i
	}
	if err := st.an.Reanalyze(st.inc, all); err != nil {
		return err
	}
	if err := st.inc.SyncTree(); err != nil {
		return err
	}
	fresh, err := core.Analyze(st.tree)
	if err != nil {
		return err
	}
	for i := range fresh.Bounds {
		f, k := fresh.Bounds[i], st.an.Bounds[i]
		if math.Float64bits(f.Elmore) != math.Float64bits(st.inc.Elmore(i)) || f != k {
			return fmt.Errorf("whatif: node %s: incremental state differs from a fresh analysis (elmore %v vs %v)", f.Node, st.inc.Elmore(i), f.Elmore)
		}
	}
	if math.Float64bits(fresh.TP) != math.Float64bits(st.an.TP) {
		return fmt.Errorf("whatif: T_P %v differs from a fresh analysis %v", st.an.TP, fresh.TP)
	}
	return nil
}
