// Command optimize sizes the wires of an RC tree by coordinate
// descent: minimize the worst-leaf Elmore delay T_D under a total-
// capacitance budget. It is the proving workload for the incremental
// delta re-analysis engine — every probe is a SetR/SetC what-if,
// an order-1 range sweep, a worst-leaf scan and a Revert, never a
// full recompute.
//
// Each node i carries a width multiplier w_i (starting at 1): the wire
// model is R_i = R0_i / w_i, C_i = C0_i * w_i, so widening a segment
// trades its resistance against its capacitance — the classic sizing
// knob (cf. Boyd's GP wire-sizing formulation). Candidate widths come
// from a fixed grid; a move is kept only when it strictly lowers the
// worst-leaf delay and keeps the total capacitance within budget.
//
// Usage:
//
//	optimize [-nodes 10000 -seed 1 | netlist.sp] [-budget 1.1]
//	         [-passes 4] [-widths 0.5,0.7,1,1.4,2] [-out sizes.txt]
//
// With a netlist argument the deck is read from the file; otherwise a
// seeded random topology of -nodes nodes is generated.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"elmore/internal/cliutil"
	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 10000, "node count for the generated topology (ignored with a netlist argument)")
		seed      = fs.Int64("seed", 1, "seed for the generated topology")
		budget    = fs.Float64("budget", 1.1, "total-capacitance budget as a multiple of the initial total")
		passes    = fs.Int("passes", 4, "maximum coordinate-descent passes over all nodes")
		widthsStr = fs.String("widths", "0.5,0.7,1,1.4,2", "candidate width multipliers (comma-separated, relative to the original wire)")
		outPath   = fs.String("out", "", "write final per-node widths to this file (name<TAB>width)")
		verbose   = fs.Bool("v", false, "log per-pass progress to stderr")
	)
	cf := cliutil.Add(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.Version {
		fmt.Fprintln(stdout, cliutil.Version("optimize"))
		return nil
	}
	sess, err := cf.Start(stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	_, root := telemetry.Start(sess.Context(), "optimize.run")
	defer root.End()

	widths, err := parseWidths(*widthsStr)
	if err != nil {
		return err
	}
	if *budget <= 0 {
		return fmt.Errorf("-budget must be positive, got %v", *budget)
	}
	if *passes < 1 {
		return fmt.Errorf("-passes must be >= 1, got %d", *passes)
	}

	var tree *rctree.Tree
	switch fs.NArg() {
	case 0:
		if *nodes < 2 {
			return fmt.Errorf("-nodes must be >= 2, got %d", *nodes)
		}
		tree = topo.Random(*seed, topo.RandomOptions{N: *nodes})
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		deck, perr := netlist.Parse(f)
		f.Close()
		if perr != nil {
			return perr
		}
		for _, w := range deck.Warnings {
			fmt.Fprintln(stderr, "warning:", w)
		}
		tree = deck.Tree
	default:
		return fmt.Errorf("at most one netlist file")
	}
	root.AttrInt("nodes", int64(tree.N()))

	res, err := optimize(tree, widths, *budget, *passes, *verbose, stderr)
	if err != nil {
		return err
	}
	report(stdout, tree, res)
	if *outPath != "" {
		if err := writeWidths(*outPath, tree, res.Widths); err != nil {
			return err
		}
	}
	return nil
}

func parseWidths(s string) ([]float64, error) {
	var ws []float64
	hasUnit := false
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.ParseFloat(part, 64)
		if err != nil || !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("-widths: %q is not a positive width multiplier", part)
		}
		if w == 1 {
			hasUnit = true
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("-widths: no candidates")
	}
	if !hasUnit {
		// Width 1 (the original wire) must stay reachable, or the
		// optimizer cannot leave a node unsized.
		ws = append(ws, 1)
	}
	sort.Float64s(ws)
	return ws, nil
}

// result carries everything the optimization run learned.
type result struct {
	InitialWorst, FinalWorst   float64 // worst-leaf T_D (s)
	InitialTotalC, FinalTotalC float64
	CapBudget                  float64 // absolute budget (F)
	Passes, Moves, Probes      int
	Widths                     []float64 // final per-node multipliers
	WorstLeaf                  int       // final worst leaf (tree index)
	Stats                      moments.IncrementalStats
	Verified                   bool // final state re-checked against a full Analyze
}

// optimize runs coordinate descent over all nodes with the incremental
// engine doing every delay probe. The tree is left carrying the final
// sized values (SyncTree), and the final worst-leaf delay is verified
// bit-identical against a fresh full analysis before returning.
func optimize(tree *rctree.Tree, widths []float64, budgetFactor float64, maxPasses int, verbose bool, stderr io.Writer) (*result, error) {
	n := tree.N()
	leaves := tree.Leaves()
	inc, err := moments.NewIncremental(tree)
	if err != nil {
		return nil, err
	}
	// Original (width-1) element values; the candidate grid is always
	// relative to these, so repeated passes cannot drift.
	r0 := make([]float64, n)
	c0 := make([]float64, n)
	for i := 0; i < n; i++ {
		r0[i] = tree.R(i)
		c0[i] = tree.C(i)
	}
	res := &result{
		Widths:        make([]float64, n),
		InitialTotalC: inc.TotalC(),
	}
	for i := range res.Widths {
		res.Widths[i] = 1
	}
	res.CapBudget = budgetFactor * res.InitialTotalC

	worst := func() (float64, int) {
		wd, wi := math.Inf(-1), -1
		for _, l := range leaves {
			if d := inc.Elmore(l); d > wd {
				wd, wi = d, l
			}
		}
		return wd, wi
	}
	res.InitialWorst, _ = worst()
	best := res.InitialWorst

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			bestW := res.Widths[i]
			bestDelay := best
			for _, w := range widths {
				if w == res.Widths[i] {
					continue
				}
				res.Probes++
				if err := inc.SetR(i, r0[i]/w); err != nil {
					return nil, err
				}
				if err := inc.SetC(i, c0[i]*w); err != nil {
					return nil, err
				}
				d, _ := worst()
				feasible := inc.TotalC() <= res.CapBudget
				inc.Revert()
				if feasible && d < bestDelay {
					bestDelay, bestW = d, w
				}
			}
			if bestW != res.Widths[i] {
				if err := inc.SetR(i, r0[i]/bestW); err != nil {
					return nil, err
				}
				if err := inc.SetC(i, c0[i]*bestW); err != nil {
					return nil, err
				}
				inc.Commit()
				res.Widths[i] = bestW
				best = bestDelay
				res.Moves++
				improved = true
			}
		}
		res.Passes = pass + 1
		if verbose {
			fmt.Fprintf(stderr, "pass %d: worst T_D %s, total C %s, %d moves\n",
				pass+1, rctree.FormatSeconds(best), rctree.FormatFarads(inc.TotalC()), res.Moves)
		}
		if !improved {
			break
		}
	}

	res.FinalWorst, res.WorstLeaf = worst()
	res.FinalTotalC = inc.TotalC()
	res.Stats = inc.Stats()

	// Hand the sized values back to the tree and verify the incremental
	// state against a from-scratch analysis — the bit-identity contract,
	// checked on every run, not only in tests.
	if err := inc.SyncTree(); err != nil {
		return nil, err
	}
	an, err := core.Analyze(tree)
	if err != nil {
		return nil, err
	}
	for _, l := range leaves {
		if an.Bounds[l].Elmore != inc.Elmore(l) {
			return nil, fmt.Errorf("optimize: incremental T_D(%s) diverged from full recompute: %v != %v",
				tree.Name(l), inc.Elmore(l), an.Bounds[l].Elmore)
		}
	}
	res.Verified = true
	return res, nil
}

func report(w io.Writer, tree *rctree.Tree, res *result) {
	impr := 0.0
	if res.InitialWorst > 0 {
		impr = 100 * (res.InitialWorst - res.FinalWorst) / res.InitialWorst
	}
	fmt.Fprintf(w, "nodes          %d\n", tree.N())
	fmt.Fprintf(w, "worst T_D      %s -> %s  (-%.1f%%) at %s\n",
		rctree.FormatSeconds(res.InitialWorst), rctree.FormatSeconds(res.FinalWorst), impr, tree.Name(res.WorstLeaf))
	fmt.Fprintf(w, "total C        %s -> %s  (budget %s)\n",
		rctree.FormatFarads(res.InitialTotalC), rctree.FormatFarads(res.FinalTotalC), rctree.FormatFarads(res.CapBudget))
	fmt.Fprintf(w, "passes         %d (%d moves, %d probes)\n", res.Passes, res.Moves, res.Probes)
	st := res.Stats
	fmt.Fprintf(w, "engine         %d sets, %d flushes, %d nodes touched (%.1f/flush)\n",
		st.Sets, st.Flushes, st.NodesTouched, float64(st.NodesTouched)/math.Max(float64(st.Flushes), 1))
	if res.Verified {
		fmt.Fprintf(w, "verified       final delays bit-identical to full recompute\n")
	}
}

func writeWidths(path string, tree *rctree.Tree, widths []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, w := range widths {
		fmt.Fprintf(f, "%s\t%g\n", tree.Name(i), w)
	}
	return f.Close()
}
