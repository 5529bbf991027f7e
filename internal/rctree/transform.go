package rctree

import (
	"fmt"
	"strings"
)

// Simplify returns an electrically equivalent tree with every
// zero-capacitance single-child junction merged into its child (series
// resistances add). Extraction tools emit many such junctions (vias,
// segment boundaries); removing them shrinks every downstream analysis
// without changing any node voltage. Node names of surviving nodes are
// preserved. Zero-capacitance leaves are also dropped — no current ever
// flows into them, so they carry the same voltage as their parent.
func (t *Tree) Simplify() (*Tree, error) {
	// keep[i] reports whether node i survives; extraR[i] accumulates the
	// series resistance of merged ancestors, added to i's own R.
	n := t.N()
	drop := make([]bool, n)
	for i := 0; i < n; i++ {
		if t.C(i) == 0 && len(t.Children(i)) <= 1 {
			drop[i] = true
		}
	}
	// Count survivors; a tree that would vanish entirely is degenerate.
	survivors := 0
	for i := 0; i < n; i++ {
		if !drop[i] {
			survivors++
		}
	}
	if survivors == 0 {
		return nil, fmt.Errorf("rctree: Simplify would remove every node (no capacitance anywhere)")
	}

	b := NewBuilder()
	newID := make([]int, n)
	for i := range newID {
		newID[i] = -1
	}
	// Pre-order: parents processed first. For each surviving node, walk
	// up through dropped ancestors, summing their resistances, until a
	// surviving ancestor (or the source) is found.
	for _, i := range t.PreOrder() {
		if drop[i] {
			continue
		}
		r := t.R(i)
		p := t.Parent(i)
		for p != Source && drop[p] {
			r += t.R(p)
			p = t.Parent(p)
		}
		var id int
		var err error
		if p == Source {
			id, err = b.Root(t.Name(i), r, t.C(i))
		} else {
			id, err = b.Attach(newID[p], t.Name(i), r, t.C(i))
		}
		if err != nil {
			return nil, err
		}
		newID[i] = id
	}
	return b.Build()
}

// ScaleValues multiplies every resistance by rFactor and every
// capacitance by cFactor in place — the uniform process-corner
// transform. Factors must be positive and finite, and so must every
// scaled resistance (a huge factor can overflow to +Inf); all products
// are validated before any is applied, so on error the tree is
// unchanged. Unlike a SetR/SetC loop, the whole edit validates once per
// node with no per-call error wrapping and bumps the modification
// generation exactly once, so fingerprints are invalidated once per
// scale instead of 2N times.
func (t *Tree) ScaleValues(rFactor, cFactor float64) error {
	if err := checkR(rFactor); err != nil {
		return fmt.Errorf("rctree: ScaleValues rFactor: %w", err)
	}
	if err := checkR(cFactor); err != nil {
		return fmt.Errorf("rctree: ScaleValues cFactor: %w", err)
	}
	for i := range t.r {
		if err := checkR(t.r[i] * rFactor); err != nil {
			return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
		}
		if err := checkC(t.c[i] * cFactor); err != nil {
			return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
		}
	}
	for i := range t.r {
		t.r[i] *= rFactor
		t.c[i] *= cFactor
	}
	t.gen.Add(1)
	return nil
}

// Scaled returns a clone with every resistance multiplied by rFactor
// and every capacitance by cFactor. Factors must be positive and
// finite. The original tree is untouched.
func (t *Tree) Scaled(rFactor, cFactor float64) (*Tree, error) {
	cp := t.Clone()
	if err := cp.ScaleValues(rFactor, cFactor); err != nil {
		return nil, fmt.Errorf("rctree: Scaled: %w", err)
	}
	return cp, nil
}

// MaxDepth returns the largest resistor count on any source-to-node
// path. One ascending sweep sets each node's depth from its parent's.
func (t *Tree) MaxDepth() int {
	depth := make([]int32, t.N())
	var max int32
	for i, p := range t.parent {
		d := int32(1)
		if p != Source {
			d = depth[p] + 1
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return int(max)
}

// MaxFanout returns the largest child count of any node (root fanout
// from the source counts too).
func (t *Tree) MaxFanout() int {
	max := len(t.Roots())
	for i := range t.parent {
		if f := int(t.kidStart[i+1] - t.kidStart[i]); f > max {
			max = f
		}
	}
	return max
}

// DOT renders the tree in Graphviz dot format: the source as a box,
// nodes labelled with their capacitance, edges with their resistance.
// Useful for eyeballing extracted topologies.
func (t *Tree) DOT(name string) string {
	var sb strings.Builder
	if name == "" {
		name = "rctree"
	}
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  source [shape=box label=\"source\"];\n", name)
	for _, i := range t.PreOrder() {
		fmt.Fprintf(&sb, "  %q [label=\"%s\\n%s\"];\n", t.Name(i), t.Name(i), FormatFarads(t.C(i)))
	}
	for _, i := range t.PreOrder() {
		from := "source"
		if p := t.Parent(i); p != Source {
			from = t.Name(p)
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%s\"];\n", from, t.Name(i), FormatOhms(t.R(i)))
	}
	sb.WriteString("}\n")
	return sb.String()
}
