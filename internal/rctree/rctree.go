// Package rctree models RC trees: resistor-capacitor circuits in which
// every node has a capacitor to ground, no capacitor couples two
// non-ground nodes, and no resistor connects to ground. Such circuits are
// the canonical model for digital gate + interconnect delay estimation
// (Penfield-Rubinstein 1981; Gupta, Tutuianu, Pileggi 1995/97).
//
// A Tree is driven by a single ideal voltage source (the "input" or
// "source" node). Every tree node i carries a resistance R(i) to its
// parent (toward the source) and a capacitance C(i) to ground. A node
// whose parent is the source is a root node; a Tree may have several
// root nodes (several resistors leaving the source), which still forms
// an RC tree in the classical sense.
package rctree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Source is the pseudo-index used for the voltage-source node. It appears
// as the Parent of root nodes and is never a valid node index.
const Source = -1

// Tree is an immutable-topology RC tree, stored as its own sweep layout.
// Node indices are dense in [0, N()) and are assigned in the order nodes
// were added to the Builder. Attach takes an existing parent, so that
// order is topological: Parent(i) < i for every non-root node. An
// ascending index sweep therefore visits parents before children and a
// descending sweep children before parents, for every tree, and the
// kernels in moments and sim run both directly on the tree's arrays
// (see Arrays). Element values (R, C) may be updated in place via
// SetR/SetC, which is useful for sizing loops; topology cannot change
// after Build.
//
// Node names are arrays too: one string holding every name in index
// order, the int32 offset of each, and a flat open-addressing table of
// (hash tag, index+1) words that Index probes. Hand-built and parsed
// trees share this one representation.
type Tree struct {
	parent []int32 // parent index, or Source; parent[i] < i
	r, c   []float64
	names  nameList
	// kidStart has length N+1; the children of node i are
	// kids[kidStart[i]:kidStart[i+1]], in attach order.
	kidStart, kids []int32
	roots          []int // parent == Source, in index order

	preOnce sync.Once
	pre     []int // pre-order, built on the first PreOrder call

	// gen counts element-value mutations (SetR/SetC), and fp is the
	// Fingerprint of generation fp.gen. Both are atomic so concurrent
	// readers (Fingerprint from parallel workers) never race with each
	// other; mutating a tree concurrently with readers remains
	// unsupported, as documented on SetR/SetC.
	gen atomic.Uint64
	fp  atomic.Pointer[fingerprint]
}

// fingerprint is a Fingerprint value and the generation it hashes.
type fingerprint struct{ gen, fp uint64 }

// Arrays is a read-only view of a tree's sweep layout: the tree's own
// arrays, not a copy, so building one allocates nothing and R and C
// follow SetR/SetC at once. Parent[i] < i for every non-root node, so a
// kernel sweeps ascending for parents-first passes and descending for
// children-first passes. The children of node i are
// Kids[KidStart[i]:KidStart[i+1]], in attach order. Kernels must never
// write to any of the slices.
type Arrays struct {
	Parent   []int32 // parent index, or Source
	R, C     []float64
	KidStart []int32 // length N+1
	Kids     []int32
}

// Arrays returns the tree's sweep layout.
func (t *Tree) Arrays() Arrays {
	return Arrays{Parent: t.parent, R: t.r, C: t.c, KidStart: t.kidStart, Kids: t.kids}
}

// Compile returns t.Arrays().
//
// Deprecated: the tree is its own sweep layout; use Tree.Arrays.
func Compile(t *Tree) Arrays { return t.Arrays() }

// N returns the number of nodes in the tree (excluding the source).
func (t *Tree) N() int { return len(t.parent) }

// Name returns the user-assigned name of node i.
func (t *Tree) Name(i int) string { return t.names.name(i) }

// R returns the resistance (ohms) between node i and its parent.
func (t *Tree) R(i int) float64 { return t.r[i] }

// C returns the capacitance (farads) from node i to ground.
func (t *Tree) C(i int) float64 { return t.c[i] }

// Parent returns the parent index of node i, or Source for a root node.
func (t *Tree) Parent(i int) int { return int(t.parent[i]) }

// Depth returns the number of resistors on the path from the source to
// node i. Root nodes have depth 1. It walks the parent links, so it
// costs O(depth).
func (t *Tree) Depth(i int) int {
	d := 0
	for j := int32(i); j != Source; j = t.parent[j] {
		d++
	}
	return d
}

// Children returns the child indices of node i in attach order, or nil
// for a leaf. The returned slice is owned by the tree and must not be
// modified.
func (t *Tree) Children(i int) []int32 {
	lo, hi := t.kidStart[i], t.kidStart[i+1]
	if lo == hi {
		return nil
	}
	return t.kids[lo:hi:hi]
}

// Roots returns the indices of all nodes attached directly to the
// source. The slice is computed once at Build time and owned by the
// tree; it must not be modified.
func (t *Tree) Roots() []int { return t.roots }

// Leaves returns the indices of all childless nodes, in index order.
func (t *Tree) Leaves() []int {
	var leaves []int
	for i := range t.parent {
		if t.kidStart[i] == t.kidStart[i+1] {
			leaves = append(leaves, i)
		}
	}
	return leaves
}

// Index returns the index of the node with the given name.
func (t *Tree) Index(name string) (int, bool) { return t.names.lookup(name) }

// MustIndex is like Index but panics if the name is unknown. It is meant
// for tests and examples operating on hand-built circuits.
func (t *Tree) MustIndex(name string) int {
	i, ok := t.names.lookup(name)
	if !ok {
		panic(fmt.Sprintf("rctree: no node named %q", name))
	}
	return i
}

// SetR updates the resistance of node i. It returns an error if r is not
// a positive finite value. SetR invalidates cached derived artifacts:
// fingerprints computed earlier are stale. See Fingerprint for the full
// mutation/caching contract. For bulk edits prefer SetValues or
// ScaleValues, which validate and invalidate once instead of per node.
func (t *Tree) SetR(i int, r float64) error {
	if err := checkR(r); err != nil {
		return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
	}
	t.r[i] = r
	t.gen.Add(1)
	return nil
}

// SetC updates the grounded capacitance of node i. It returns an error if
// c is negative or not finite. A zero capacitance is allowed (a pure
// resistive junction), though at least one node in the tree must carry
// nonzero capacitance for the circuit to have dynamics. Like SetR it
// invalidates cached fingerprints; see Fingerprint for the full
// mutation/caching contract, and SetValues/ScaleValues for bulk edits.
func (t *Tree) SetC(i int, c float64) error {
	if err := checkC(c); err != nil {
		return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
	}
	t.c[i] = c
	t.gen.Add(1)
	return nil
}

// SetValues replaces every element value in one bulk mutation: r and c,
// when non-nil, must have length N() and carry the new resistances and
// capacitances in node-index order. All values are validated before any
// is applied — on error the tree is unchanged — and the modification
// generation is bumped exactly once, so derived artifacts
// (fingerprints) are invalidated once per bulk edit instead of once per
// node. A nil slice leaves that element kind untouched.
func (t *Tree) SetValues(r, c []float64) error {
	n := t.N()
	if r != nil && len(r) != n {
		return fmt.Errorf("rctree: SetValues: got %d resistances for %d nodes", len(r), n)
	}
	if c != nil && len(c) != n {
		return fmt.Errorf("rctree: SetValues: got %d capacitances for %d nodes", len(c), n)
	}
	if r == nil && c == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		if r != nil {
			if err := checkR(r[i]); err != nil {
				return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
			}
		}
		if c != nil {
			if err := checkC(c[i]); err != nil {
				return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
			}
		}
	}
	if r != nil {
		copy(t.r, r)
	}
	if c != nil {
		copy(t.c, c)
	}
	t.gen.Add(1)
	return nil
}

// Generation returns the tree's element-value modification count: it
// starts at zero and increases by one for every SetR/SetC call and by
// one per SetValues/ScaleValues bulk edit. Derived-artifact caches
// (fingerprints, incremental engines) compare generations to detect
// that a snapshot is stale.
func (t *Tree) Generation() uint64 { return t.gen.Load() }

// Clone returns a deep copy of the tree. The copy shares no mutable state
// with the original, so SetR/SetC on one does not affect the other. The
// names, which nothing writes after Build, are shared.
func (t *Tree) Clone() *Tree {
	return &Tree{
		parent:   slices.Clone(t.parent),
		r:        slices.Clone(t.r),
		c:        slices.Clone(t.c),
		names:    t.names,
		kidStart: slices.Clone(t.kidStart),
		kids:     slices.Clone(t.kids),
		roots:    slices.Clone(t.roots),
	}
}

// TotalC returns the sum of all grounded capacitances in the tree.
func (t *Tree) TotalC() float64 {
	var sum float64
	for _, c := range t.c {
		sum += c
	}
	return sum
}

// TotalR returns the sum of all resistances in the tree.
func (t *Tree) TotalR() float64 {
	var sum float64
	for _, r := range t.r {
		sum += r
	}
	return sum
}

// PreOrder returns node indices in depth-first pre-order, children in
// attach order: every subtree is one contiguous run, its root first.
// The order is built on the first call; PreOrder is safe for concurrent
// callers. The slice is owned by the tree.
func (t *Tree) PreOrder() []int {
	t.preOnce.Do(func() {
		pre := make([]int, 0, t.N())
		var stack []int32
		for k := len(t.roots) - 1; k >= 0; k-- {
			stack = append(stack, int32(t.roots[k]))
		}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pre = append(pre, int(i))
			for k := t.kidStart[i+1] - 1; k >= t.kidStart[i]; k-- {
				stack = append(stack, t.kids[k])
			}
		}
		t.pre = pre
	})
	return t.pre
}

// PathToSource returns the node indices on the path from node i up to
// (but excluding) the source, starting with i itself.
func (t *Tree) PathToSource(i int) []int {
	var path []int
	for j := i; j != Source; j = int(t.parent[j]) {
		path = append(path, j)
	}
	return path
}

// PathResistance returns R_ii: the total resistance on the unique path
// between the source and node i.
func (t *Tree) PathResistance(i int) float64 {
	var sum float64
	for j := i; j != Source; j = int(t.parent[j]) {
		sum += t.r[j]
	}
	return sum
}

// SharedPathResistance returns R_ki: the resistance of the portion of the
// source-to-i path that is common with the source-to-k path. This is the
// kernel of the Elmore delay sum T_Di = sum_k R_ki * C_k.
func (t *Tree) SharedPathResistance(i, k int) float64 {
	// Walk both nodes up to their common ancestor, then sum the
	// resistance from the ancestor to the source.
	a, b := i, k
	da, db := t.Depth(a), t.Depth(b)
	for ; da > db; da-- {
		a = int(t.parent[a])
	}
	for ; db > da; db-- {
		b = int(t.parent[b])
	}
	for a != b {
		if a == Source || b == Source {
			return 0 // different roots: no shared resistance
		}
		a = int(t.parent[a])
		b = int(t.parent[b])
	}
	if a == Source {
		return 0
	}
	return t.PathResistance(a)
}

// DownstreamC returns, for every node i, the total capacitance of the
// subtree rooted at i (including C(i) itself). This is the one-pass
// upward traversal used by the O(N) Elmore computation: a descending
// sweep, children before parents, gathering each node's children.
func (t *Tree) DownstreamC() []float64 {
	out := make([]float64, t.N())
	for i := len(out) - 1; i >= 0; i-- {
		d := t.c[i]
		for _, ch := range t.kids[t.kidStart[i]:t.kidStart[i+1]] {
			d += out[ch]
		}
		out[i] = d
	}
	return out
}

// Subtree returns a new Tree consisting of node i and all its
// descendants, with node i as the sole root (its resistance preserved as
// the root resistance). Node names are preserved.
func (t *Tree) Subtree(i int) (*Tree, error) {
	b := NewBuilder()
	var add func(j, parent int) error
	add = func(j, parent int) error {
		var id int
		var err error
		if parent == Source {
			id, err = b.Root(t.Name(j), t.r[j], t.c[j])
		} else {
			id, err = b.Attach(parent, t.Name(j), t.r[j], t.c[j])
		}
		if err != nil {
			return err
		}
		for _, ch := range t.Children(j) {
			if err := add(int(ch), id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(i, Source); err != nil {
		return nil, err
	}
	return b.Build()
}

// String renders the tree topology as an indented outline, one node per
// line, with resistances and capacitances in engineering notation.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(i, indent int)
	walk = func(i, indent int) {
		fmt.Fprintf(&sb, "%s%s: R=%s C=%s\n",
			strings.Repeat("  ", indent), t.Name(i),
			FormatOhms(t.r[i]), FormatFarads(t.c[i]))
		for _, ch := range t.Children(i) {
			walk(int(ch), indent+1)
		}
	}
	for _, r := range t.Roots() {
		walk(r, 0)
	}
	return sb.String()
}

// Names returns all node names in index order.
func (t *Tree) Names() []string {
	names := make([]string, t.N())
	for i := range names {
		names[i] = t.Name(i)
	}
	return names
}

// Validate re-checks the structural invariants of the tree: positive
// finite resistances, nonnegative finite capacitances, at least one node
// with nonzero capacitance, and every parent index below its child's.
// Build always returns a valid tree; Validate exists to catch invalid
// in-place edits (for example SetC-ing every capacitor to zero).
func (t *Tree) Validate() error {
	if t.N() == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	anyC := false
	for i, p := range t.parent {
		if err := checkR(t.r[i]); err != nil {
			return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
		}
		if err := checkC(t.c[i]); err != nil {
			return fmt.Errorf("rctree: node %q: %w", t.Name(i), err)
		}
		if t.c[i] > 0 {
			anyC = true
		}
		if p < Source || int(p) >= i {
			return fmt.Errorf("rctree: node %q: parent index %d not in [%d,%d)", t.Name(i), p, Source, i)
		}
	}
	if !anyC {
		return fmt.Errorf("rctree: tree has no capacitance (all C are zero)")
	}
	return nil
}

// ValidateR reports whether r is a legal element resistance (positive
// and finite) — the same check SetR and Build apply, exported so
// engines that shadow a tree's values (moments.Incremental) can enforce
// the identical contract without round-tripping through the tree.
func ValidateR(r float64) error { return checkR(r) }

// ValidateC is ValidateR for capacitances: nonnegative and finite.
func ValidateC(c float64) error { return checkC(c) }

func checkR(r float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("resistance must be finite, got %v", r)
	}
	if r <= 0 {
		return fmt.Errorf("resistance must be positive, got %v", r)
	}
	return nil
}

func checkC(c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("capacitance must be finite, got %v", c)
	}
	if c < 0 {
		return fmt.Errorf("capacitance must be nonnegative, got %v", c)
	}
	return nil
}

// Builder constructs a Tree incrementally, filling the tree's own
// arrays: parent links and values, and the names with their hash
// index. The zero value is not usable; create one with NewBuilder or
// NewBuilderNames.
type Builder struct {
	parent []int32
	r, c   []float64
	// text holds the names added so far; names is their list.
	text  strings.Builder
	names nameList
	// adopted is the caller's name table (NewBuilderNames), or nil.
	adopted *NameTable
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{names: nameList{off: []int32{0}, index: newNameIndex(0)}}
}

// NewBuilderNames returns an empty Builder with room for n nodes that
// adopts names as the built tree's names and name index instead of
// building its own, for a deck reader that fills the table while it
// scans. Root and Attach use the name they are given only in their
// errors, so they skip the duplicate-name check. Before Build the
// caller must Reindex names so that it holds the name of every added
// node under the index Root or Attach returned for it, and nothing
// else; Build checks that it holds one name per node, and the tree then
// owns the table's names.
func NewBuilderNames(n int, names *NameTable) *Builder {
	return &Builder{
		parent:  make([]int32, 0, n),
		r:       make([]float64, 0, n),
		c:       make([]float64, 0, n),
		adopted: names,
	}
}

// Root adds a node attached directly to the voltage source through
// resistance r, carrying grounded capacitance c. It returns the new
// node's index.
func (b *Builder) Root(name string, r, c float64) (int, error) {
	return b.add(name, Source, r, c)
}

// Attach adds a node as a child of parent (a previously returned index)
// through resistance r, carrying grounded capacitance c. It returns the
// new node's index.
func (b *Builder) Attach(parent int, name string, r, c float64) (int, error) {
	if parent < 0 || parent >= len(b.parent) {
		err := fmt.Errorf("rctree: attach %q: parent index %d out of range [0,%d)", name, parent, len(b.parent))
		b.fail(err)
		return -1, err
	}
	return b.add(name, parent, r, c)
}

// MustRoot is Root for hand-built circuits in tests and examples; it
// panics on error.
func (b *Builder) MustRoot(name string, r, c float64) int {
	id, err := b.Root(name, r, c)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAttach is Attach for hand-built circuits; it panics on error.
func (b *Builder) MustAttach(parent int, name string, r, c float64) int {
	id, err := b.Attach(parent, name, r, c)
	if err != nil {
		panic(err)
	}
	return id
}

func (b *Builder) add(name string, parent int, r, c float64) (int, error) {
	id := len(b.parent)
	if id == math.MaxInt32 {
		err := fmt.Errorf("rctree: more than %d nodes", math.MaxInt32)
		b.fail(err)
		return -1, err
	}
	if name == "" {
		name = fmt.Sprintf("n%d", id+1)
	}
	var h uint64
	var slot int
	if b.adopted == nil {
		var dup int32
		if dup, h, slot = b.names.find(name); dup >= 0 {
			err := fmt.Errorf("rctree: duplicate node name %q", name)
			b.fail(err)
			return -1, err
		}
		if b.text.Len()+len(name) > math.MaxInt32 {
			err := fmt.Errorf("rctree: node names exceed %d bytes", math.MaxInt32)
			b.fail(err)
			return -1, err
		}
	}
	if err := checkR(r); err != nil {
		err = fmt.Errorf("rctree: node %q: %w", name, err)
		b.fail(err)
		return -1, err
	}
	if err := checkC(c); err != nil {
		err = fmt.Errorf("rctree: node %q: %w", name, err)
		b.fail(err)
		return -1, err
	}
	b.parent = append(b.parent, int32(parent))
	b.r = append(b.r, r)
	b.c = append(b.c, c)
	if b.adopted == nil {
		b.names.add(&b.text, name, h, slot)
	}
	return id, nil
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first error recorded by the builder, if any. It allows
// chained Must-free construction with a single check before Build.
func (b *Builder) Err() error { return b.err }

// Build finalizes the tree. It returns an error if any prior operation
// failed or if the resulting circuit is degenerate (empty, or entirely
// capacitance-free).
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	names := b.names
	if b.adopted != nil {
		names = b.adopted.names
	}
	if n := len(names.off) - 1; n != len(b.parent) {
		return nil, fmt.Errorf("rctree: name table holds %d names for %d nodes", max(n, 0), len(b.parent))
	}
	t := &Tree{parent: b.parent, r: b.r, c: b.c, names: names}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.link()
	// Detach the builder so further use cannot alias the built tree.
	*b = *NewBuilder()
	return t, nil
}

// link builds the roots and the CSR child list from the parent links
// with one counting pass. Children are placed in index order, which is
// the order Attach added them.
func (t *Tree) link() {
	n := t.N()
	ks := make([]int32, n+1)
	for i, p := range t.parent {
		if p == Source {
			t.roots = append(t.roots, i)
		} else {
			ks[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		ks[i] += ks[i-1]
	}
	// ks[p] is now the start of p's block. Use it as p's fill cursor:
	// after the fill it holds the end of p's block, which is the start
	// of p+1's, so shifting ks up by one slot restores the starts.
	kids := make([]int32, ks[n])
	for i, p := range t.parent {
		if p != Source {
			kids[ks[p]] = int32(i)
			ks[p]++
		}
	}
	copy(ks[1:], ks[:n])
	ks[0] = 0
	t.kidStart, t.kids = ks, kids
}

// Fingerprint returns a 64-bit FNV-1a hash of the tree's complete
// electrical identity: node count, names, parent links, and the exact
// bit patterns of every resistance and capacitance. Two trees with
// equal fingerprints are — up to hash collision — the same circuit, so
// derived artifacts (moment sets, analyses) may be shared between them.
//
// Mutation contract: a fingerprint value is reused only at the
// generation it was computed for. The tree keeps its last fingerprint
// with the Generation it hashed, and every SetR/SetC/SetValues/
// ScaleValues edit bumps the generation, so the next call after an
// edit hashes the new values. Consumers that key derived artifacts by
// fingerprint (batch.Cache) therefore stay correct across mutations as
// long as they re-ask per request; what they cannot survive is a
// mutation racing a request on the same *Tree, or a caller reusing a
// fingerprint VALUE captured before an edit. The rules:
//
//   - Ask at use: take the fingerprint at the moment a derived artifact
//     is requested, not earlier. Asking again at the same generation
//     costs one atomic load.
//   - Quiesce before mutating: do not SetR/SetC a tree while another
//     goroutine may be fingerprinting or analyzing it; mutate between
//     batches, or mutate a Clone.
//   - After a mutation, previously derived artifacts describe the OLD
//     circuit. They remain internally consistent (they snapshot values)
//     but must be looked up under the old fingerprint only.
//
// Fingerprint is safe for concurrent use on a tree no one mutates:
// concurrent first calls may both hash, and they store the same value.
func (t *Tree) Fingerprint() uint64 {
	gen := t.gen.Load()
	if f := t.fp.Load(); f != nil && f.gen == gen {
		return f.fp
	}
	fp := t.fingerprint()
	t.fp.Store(&fingerprint{gen: gen, fp: fp})
	return fp
}

// fingerprint hashes the tree's current values.
func (t *Tree) fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(t.N()))
	for i := range t.parent {
		name := t.Name(i)
		// Length-prefix the name so its bytes cannot be confused with
		// the fixed-width fields that follow: without it, shifting
		// bytes between a name and the adjacent mixed fields (or an
		// adjacent name) can produce the same byte stream for two
		// different circuits — a cache-poisoning hazard for consumers
		// that share derived artifacts by fingerprint.
		mix(uint64(len(name)))
		for j := 0; j < len(name); j++ {
			h ^= uint64(name[j])
			h *= prime
		}
		mix(uint64(t.parent[i]) + 1) // +1 keeps Source (-1) distinct cheaply
		mix(math.Float64bits(t.r[i]))
		mix(math.Float64bits(t.c[i]))
	}
	return h
}

// SortedNames returns all node names sorted lexicographically; useful for
// deterministic report output.
func (t *Tree) SortedNames() []string {
	names := t.Names()
	sort.Strings(names)
	return names
}

// AddCap adds capacitance to a node already added to the builder —
// used by lumping code that deposits pi-section half-capacitances onto
// existing vertices. c must be nonnegative and finite.
func (b *Builder) AddCap(node int, c float64) error {
	if node < 0 || node >= len(b.parent) {
		err := fmt.Errorf("rctree: AddCap: node index %d out of range [0,%d)", node, len(b.parent))
		b.fail(err)
		return err
	}
	if err := checkC(c); err != nil {
		if b.adopted == nil {
			err = fmt.Errorf("rctree: AddCap node %q: %w", b.names.name(node), err)
		} else {
			err = fmt.Errorf("rctree: AddCap node %d: %w", node, err)
		}
		b.fail(err)
		return err
	}
	b.c[node] += c
	return nil
}
