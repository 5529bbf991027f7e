package rctree

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// buildChain constructs a chain of n nodes with uniform r, c.
func buildChain(t *testing.T, n int, r, c float64) *Tree {
	t.Helper()
	b := NewBuilder()
	prev := b.MustRoot("n1", r, c)
	for i := 2; i <= n; i++ {
		prev = b.MustAttach(prev, "", r, c)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

// buildY constructs the small Y-tree used across the package tests:
//
//	source -R1- a(C) -R2- b(C) -R3- c(C)
//	                 \-R4- d(C)
func buildY(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	a := b.MustRoot("a", 100, 1e-12)
	bb := b.MustAttach(a, "b", 200, 2e-12)
	b.MustAttach(bb, "c", 300, 3e-12)
	b.MustAttach(a, "d", 400, 4e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func TestBuilderBasics(t *testing.T) {
	tree := buildY(t)
	if got := tree.N(); got != 4 {
		t.Fatalf("N = %d, want 4", got)
	}
	a := tree.MustIndex("a")
	if tree.Parent(a) != Source {
		t.Errorf("parent(a) = %d, want Source", tree.Parent(a))
	}
	c := tree.MustIndex("c")
	if tree.Parent(c) != tree.MustIndex("b") {
		t.Errorf("parent(c) wrong")
	}
	if tree.Depth(c) != 3 {
		t.Errorf("depth(c) = %d, want 3", tree.Depth(c))
	}
	if got := len(tree.Children(a)); got != 2 {
		t.Errorf("children(a) = %d, want 2", got)
	}
	if _, ok := tree.Index("zz"); ok {
		t.Errorf("Index(zz) should not exist")
	}
}

func TestBuilderAutoNames(t *testing.T) {
	b := NewBuilder()
	r := b.MustRoot("", 1, 1e-12)
	b.MustAttach(r, "", 1, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tree.Name(0) != "n1" || tree.Name(1) != "n2" {
		t.Errorf("auto names = %q, %q; want n1, n2", tree.Name(0), tree.Name(1))
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
	}{
		{"duplicate name", func(b *Builder) {
			b.Root("x", 1, 1e-12)
			b.Root("x", 1, 1e-12)
		}},
		{"zero resistance", func(b *Builder) { b.Root("x", 0, 1e-12) }},
		{"negative resistance", func(b *Builder) { b.Root("x", -5, 1e-12) }},
		{"NaN resistance", func(b *Builder) { b.Root("x", math.NaN(), 1e-12) }},
		{"inf resistance", func(b *Builder) { b.Root("x", math.Inf(1), 1e-12) }},
		{"negative capacitance", func(b *Builder) { b.Root("x", 1, -1e-12) }},
		{"NaN capacitance", func(b *Builder) { b.Root("x", 1, math.NaN()) }},
		{"bad parent index", func(b *Builder) { b.Attach(5, "x", 1, 1e-12) }},
		{"empty", func(b *Builder) {}},
		{"all zero caps", func(b *Builder) { b.Root("x", 1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.f(b)
			if _, err := b.Build(); err == nil {
				t.Errorf("Build succeeded, want error")
			}
		})
	}
}

func TestBuilderFirstErrorSticks(t *testing.T) {
	b := NewBuilder()
	b.Root("x", -1, 1e-12) // first error
	b.Root("x", 1, 1e-12)  // would be a duplicate-name error
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("Err() = %v, want the first (resistance) error", err)
	}
}

func TestPathResistance(t *testing.T) {
	tree := buildY(t)
	cases := []struct {
		node string
		want float64
	}{
		{"a", 100}, {"b", 300}, {"c", 600}, {"d", 500},
	}
	for _, tc := range cases {
		if got := tree.PathResistance(tree.MustIndex(tc.node)); got != tc.want {
			t.Errorf("PathResistance(%s) = %v, want %v", tc.node, got, tc.want)
		}
	}
}

func TestSharedPathResistance(t *testing.T) {
	tree := buildY(t)
	a, b2, c, d := tree.MustIndex("a"), tree.MustIndex("b"), tree.MustIndex("c"), tree.MustIndex("d")
	cases := []struct {
		i, k int
		want float64
	}{
		{a, a, 100},
		{c, c, 600},
		{c, b2, 300},
		{b2, c, 300},
		{c, d, 100}, // only share R1
		{d, c, 100},
		{a, c, 100},
		{b2, d, 100},
	}
	for _, tc := range cases {
		if got := tree.SharedPathResistance(tc.i, tc.k); got != tc.want {
			t.Errorf("SharedPathResistance(%s,%s) = %v, want %v",
				tree.Name(tc.i), tree.Name(tc.k), got, tc.want)
		}
	}
}

func TestSharedPathResistanceDisjointRoots(t *testing.T) {
	b := NewBuilder()
	r1 := b.MustRoot("a", 10, 1e-12)
	r2 := b.MustRoot("b", 20, 1e-12)
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := tree.SharedPathResistance(r1, r2); got != 0 {
		t.Errorf("disjoint roots share %v, want 0", got)
	}
	if got := len(tree.Roots()); got != 2 {
		t.Errorf("Roots = %d, want 2", got)
	}
}

func TestDownstreamC(t *testing.T) {
	tree := buildY(t)
	down := tree.DownstreamC()
	get := func(n string) float64 { return down[tree.MustIndex(n)] }
	if got, want := get("a"), 10e-12; math.Abs(got-want) > 1e-24 {
		t.Errorf("down(a) = %v, want %v", got, want)
	}
	if got, want := get("b"), 5e-12; math.Abs(got-want) > 1e-24 {
		t.Errorf("down(b) = %v, want %v", got, want)
	}
	if got, want := get("c"), 3e-12; math.Abs(got-want) > 1e-24 {
		t.Errorf("down(c) = %v, want %v", got, want)
	}
	if got, want := get("d"), 4e-12; math.Abs(got-want) > 1e-24 {
		t.Errorf("down(d) = %v, want %v", got, want)
	}
}

func TestOrders(t *testing.T) {
	tree := buildY(t)
	pre := tree.PreOrder()
	if len(pre) != tree.N() {
		t.Fatalf("pre-order length %d, want %d", len(pre), tree.N())
	}
	// Index order is topological, so a descending sweep is a valid
	// post-order: every child sits above its parent.
	for i := 0; i < tree.N(); i++ {
		for _, ch := range tree.Children(i) {
			if int(ch) <= i {
				t.Errorf("child %d not after parent %d", ch, i)
			}
		}
	}
	seen := make(map[int]bool)
	for _, i := range pre {
		if p := tree.Parent(i); p != Source && !seen[p] {
			t.Errorf("pre-order: node %d before parent %d", i, p)
		}
		seen[i] = true
	}
}

func TestOrdersDeepChain(t *testing.T) {
	// A 200k-deep chain must not overflow the stack during order
	// computation (it is iterative).
	n := 200000
	tree := buildChain(t, n, 1, 1e-15)
	if got := len(tree.PreOrder()); got != n {
		t.Fatalf("pre-order len = %d, want %d", got, n)
	}
	if tree.Depth(n-1) != n {
		t.Fatalf("depth = %d, want %d", tree.Depth(n-1), n)
	}
}

func TestLeavesAndTotals(t *testing.T) {
	tree := buildY(t)
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %v, want 2 leaves", leaves)
	}
	if got, want := tree.TotalC(), 10e-12; math.Abs(got-want) > 1e-24 {
		t.Errorf("TotalC = %v, want %v", got, want)
	}
	if got, want := tree.TotalR(), 1000.0; got != want {
		t.Errorf("TotalR = %v, want %v", got, want)
	}
}

func TestSetRSetC(t *testing.T) {
	tree := buildY(t)
	a := tree.MustIndex("a")
	if err := tree.SetR(a, 123); err != nil || tree.R(a) != 123 {
		t.Errorf("SetR: err=%v R=%v", err, tree.R(a))
	}
	if err := tree.SetC(a, 5e-12); err != nil || tree.C(a) != 5e-12 {
		t.Errorf("SetC: err=%v C=%v", err, tree.C(a))
	}
	if err := tree.SetR(a, -1); err == nil {
		t.Errorf("SetR(-1) should fail")
	}
	if err := tree.SetC(a, -1); err == nil {
		t.Errorf("SetC(-1) should fail")
	}
	if err := tree.SetC(a, 0); err != nil {
		t.Errorf("SetC(0) should be allowed: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tree := buildY(t)
	cp := tree.Clone()
	a := tree.MustIndex("a")
	if err := cp.SetR(a, 999); err != nil {
		t.Fatal(err)
	}
	if tree.R(a) == 999 {
		t.Errorf("Clone shares R storage with original")
	}
	if cp.N() != tree.N() || cp.Name(a) != tree.Name(a) {
		t.Errorf("Clone mismatch")
	}
}

func TestValidateCatchesInPlaceDegeneracy(t *testing.T) {
	tree := buildY(t)
	for i := 0; i < tree.N(); i++ {
		if err := tree.SetC(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err == nil {
		t.Errorf("Validate should reject an all-zero-capacitance tree")
	}
}

func TestSubtree(t *testing.T) {
	tree := buildY(t)
	sub, err := tree.Subtree(tree.MustIndex("b"))
	if err != nil {
		t.Fatalf("Subtree: %v", err)
	}
	if sub.N() != 2 {
		t.Fatalf("subtree N = %d, want 2", sub.N())
	}
	bi := sub.MustIndex("b")
	if sub.Parent(bi) != Source || sub.R(bi) != 200 {
		t.Errorf("subtree root wrong: parent=%d R=%v", sub.Parent(bi), sub.R(bi))
	}
	ci := sub.MustIndex("c")
	if sub.Parent(ci) != bi {
		t.Errorf("subtree child link wrong")
	}
}

func TestPathToSource(t *testing.T) {
	tree := buildY(t)
	path := tree.PathToSource(tree.MustIndex("c"))
	want := []string{"c", "b", "a"}
	if len(path) != len(want) {
		t.Fatalf("path len = %d, want %d", len(path), len(want))
	}
	for i, id := range path {
		if tree.Name(id) != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, tree.Name(id), want[i])
		}
	}
}

func TestStringRendering(t *testing.T) {
	tree := buildY(t)
	s := tree.String()
	for _, name := range []string{"a", "b", "c", "d"} {
		if !strings.Contains(s, name+":") {
			t.Errorf("String missing node %q:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "100ohm") || !strings.Contains(s, "1pF") {
		t.Errorf("String missing formatted values:\n%s", s)
	}
}

func TestMustIndexPanics(t *testing.T) {
	tree := buildY(t)
	defer func() {
		if recover() == nil {
			t.Errorf("MustIndex should panic on unknown name")
		}
	}()
	tree.MustIndex("nope")
}

func TestSortedNames(t *testing.T) {
	tree := buildY(t)
	names := tree.SortedNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestFingerprint(t *testing.T) {
	build := func() *Tree {
		b := NewBuilder()
		n1 := b.MustRoot("n1", 100, 1e-12)
		b.MustAttach(n1, "n2", 50, 2e-12)
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical circuits must share a fingerprint")
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Errorf("clone must share the fingerprint")
	}
	// Any element edit must change it.
	c := build()
	if err := c.SetR(0, 101); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Errorf("R edit did not change the fingerprint")
	}
	d := build()
	if err := d.SetC(1, 3e-12); err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() == a.Fingerprint() {
		t.Errorf("C edit did not change the fingerprint")
	}
	// Different topology with the same element multiset.
	bb := NewBuilder()
	bb.MustRoot("n1", 100, 1e-12)
	bb.MustRoot("n2", 50, 2e-12)
	e, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.Fingerprint() == a.Fingerprint() {
		t.Errorf("different topology must change the fingerprint")
	}
}

func TestSetValuesBulkMutation(t *testing.T) {
	tree := buildY(t)
	n := tree.N()
	r := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i] = tree.R(i) + 1
		c[i] = tree.C(i) * 2
	}
	gen0 := tree.Generation()
	if err := tree.SetValues(r, c); err != nil {
		t.Fatal(err)
	}
	if got := tree.Generation() - gen0; got != 1 {
		t.Errorf("SetValues bumped the generation %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if tree.R(i) != r[i] || tree.C(i) != c[i] {
			t.Fatalf("values not applied at node %d", i)
		}
	}

	// nil slices leave that element kind untouched; both nil is a no-op
	// that must not invalidate anything.
	gen1 := tree.Generation()
	if err := tree.SetValues(nil, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Generation() != gen1 {
		t.Errorf("no-op SetValues must not bump the generation")
	}
	r2 := make([]float64, n)
	for i := range r2 {
		r2[i] = 7
	}
	if err := tree.SetValues(r2, nil); err != nil {
		t.Fatal(err)
	}
	if tree.R(0) != 7 || tree.C(0) != c[0] {
		t.Errorf("r-only SetValues must leave capacitances untouched")
	}

	// Validation is all-or-nothing: one bad value rejects the batch.
	bad := make([]float64, n)
	for i := range bad {
		bad[i] = 1
	}
	bad[n-1] = -1
	genBefore := tree.Generation()
	if err := tree.SetValues(bad, nil); err == nil {
		t.Fatal("negative resistance must fail")
	}
	if tree.Generation() != genBefore || tree.R(0) != 7 {
		t.Errorf("failed SetValues must leave the tree untouched")
	}
	if err := tree.SetValues([]float64{1}, nil); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

// Build lays the child lists out in one shared array: each list keeps
// attach order, and appending to one cannot overwrite its neighbour.
func TestBuildChildListsInAttachOrder(t *testing.T) {
	b := NewBuilder()
	a := b.MustRoot("a", 1, 1)
	x := b.MustRoot("x", 1, 1)
	a1 := b.MustAttach(a, "a1", 1, 1)
	x1 := b.MustAttach(x, "x1", 1, 1)
	a2 := b.MustAttach(a, "a2", 1, 1)
	x2 := b.MustAttach(x, "x2", 1, 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Children(a); !slices.Equal(got, []int32{int32(a1), int32(a2)}) {
		t.Errorf("children(a) = %v, want [%d %d]", got, a1, a2)
	}
	if got := tree.Children(x); !slices.Equal(got, []int32{int32(x1), int32(x2)}) {
		t.Errorf("children(x) = %v, want [%d %d]", got, x1, x2)
	}
	if tree.Children(a1) != nil {
		t.Errorf("leaf children = %v, want nil", tree.Children(a1))
	}
	_ = append(tree.Children(a), 99)
	if got := tree.Children(x); !slices.Equal(got, []int32{int32(x1), int32(x2)}) {
		t.Errorf("appending to children(a) changed children(x) to %v", got)
	}
}
