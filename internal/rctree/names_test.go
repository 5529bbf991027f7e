package rctree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// forceCollisions gives every name the hash 0 for the rest of the test:
// one tag and one home slot, so every lookup walks a single probe chain
// and every match is decided by comparing names.
func forceCollisions(t *testing.T) {
	t.Helper()
	hashMask = 0
	t.Cleanup(func() { hashMask = ^uint64(0) })
}

// randomNames returns n names drawn so that many share prefixes, some
// are prefixes of others, some are non-ASCII, some repeat and some are
// empty (a Builder names those itself, which can repeat a given name).
func randomNames(rng *rand.Rand, n int) []string {
	stems := []string{"n", "n1", "net_", "bus[3].", "ü", "节点", "K", "K", "a b", "x\x00"}
	names := make([]string, n)
	for i := range names {
		switch r := rng.Intn(20); {
		case r == 0:
			names[i] = ""
		case r == 1 && i > 0:
			names[i] = names[rng.Intn(i)]
		case r == 2:
			names[i] = fmt.Sprintf("n%d", 1+rng.Intn(n)) // a Builder-style name
		default:
			names[i] = stems[rng.Intn(len(stems))] + fmt.Sprint(rng.Intn(3*n))
		}
	}
	return names
}

// notNames returns names close to but not among the given ones.
func notNames(names []string, has func(string) bool) []string {
	var out []string
	for _, s := range names {
		for _, c := range []string{s + "x", s + "\x00", "x" + s, strings.ToUpper(s)} {
			if !has(c) {
				out = append(out, c)
			}
		}
		if len(s) > 0 && !has(s[:len(s)-1]) {
			out = append(out, s[:len(s)-1])
		}
	}
	return out
}

// checkNames fails t unless tree holds exactly want, in index order,
// and finds each by name.
func checkNames(t *testing.T, label string, tree *Tree, want []string) {
	t.Helper()
	if got := tree.Names(); !slices.Equal(got, want) {
		t.Fatalf("%s: Names() = %q, want %q", label, got, want)
	}
	oracle := make(map[string]int, len(want))
	for i, name := range want {
		oracle[name] = i
		if got := tree.Name(i); got != name {
			t.Fatalf("%s: Name(%d) = %q, want %q", label, i, got, name)
		}
	}
	for name, i := range oracle {
		if j, ok := tree.Index(name); !ok || j != i {
			t.Fatalf("%s: Index(%q) = %d, %v; want %d", label, name, j, ok, i)
		}
		if j := tree.MustIndex(name); j != i {
			t.Fatalf("%s: MustIndex(%q) = %d, want %d", label, name, j, i)
		}
	}
	for _, name := range notNames(want, func(s string) bool { _, ok := oracle[s]; return ok }) {
		if j, ok := tree.Index(name); ok {
			t.Fatalf("%s: Index(%q) = %d for a name the tree does not hold", label, name, j)
		}
	}
}

// TestNameIndexMatchesMap builds trees from random names and checks
// the name table against a map[string]int oracle: accepted and
// Builder-generated names, rejected duplicates, and lookups through
// Index, MustIndex and Names on the tree, its Clone and its
// transforms. With forced collisions every lookup walks one probe
// chain.
func TestNameIndexMatchesMap(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprintf("forced collisions %v", forced), func(t *testing.T) {
			if forced {
				forceCollisions(t)
			}
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(2000)
				if forced {
					n = 1 + rng.Intn(300)
				}
				checkBuilderNames(t, fmt.Sprintf("seed %d", seed), rng, randomNames(rng, n))
			}
		})
	}
}

func checkBuilderNames(t *testing.T, label string, rng *rand.Rand, names []string) {
	t.Helper()
	b := NewBuilder()
	oracle := map[string]int{}
	var accepted []string
	var parents []int
	firstErr := ""
	for _, s := range names {
		id := len(accepted)
		name := s
		if name == "" {
			name = fmt.Sprintf("n%d", id+1)
		}
		parent := Source
		if id > 0 && rng.Intn(4) > 0 {
			parent = rng.Intn(id)
		}
		var got int
		var err error
		if parent == Source {
			got, err = b.Root(s, 1, 1e-15)
		} else {
			got, err = b.Attach(parent, s, 1, 1e-15)
		}
		if _, dup := oracle[name]; dup {
			want := fmt.Sprintf("rctree: duplicate node name %q", name)
			if err == nil || err.Error() != want || got != -1 {
				t.Fatalf("%s: adding %q again: %d, %v; want -1, %s", label, name, got, err, want)
			}
			if firstErr == "" {
				firstErr = want
			}
			continue
		}
		if err != nil || got != id {
			t.Fatalf("%s: adding %q: %d, %v; want %d", label, name, got, err, id)
		}
		oracle[name] = id
		accepted = append(accepted, name)
		parents = append(parents, parent)
	}
	tree, err := b.Build()
	if firstErr != "" {
		if err == nil || err.Error() != firstErr {
			t.Fatalf("%s: Build after a rejected duplicate: %v, want %s", label, err, firstErr)
		}
		// Build again from the accepted names only.
		b = NewBuilder()
		for i, name := range accepted {
			if parents[i] == Source {
				b.MustRoot(name, 1, 1e-15)
			} else {
				b.MustAttach(parents[i], name, 1, 1e-15)
			}
		}
		if tree, err = b.Build(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	} else if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkNames(t, label, tree, accepted)
	checkNames(t, label+" clone", tree.Clone(), accepted)
	scaled, err := tree.Scaled(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, label+" scaled", scaled, accepted)
	// A subtree holds its nodes in pre-order, which lists every subtree
	// as one run from its root.
	root := rng.Intn(tree.N())
	pre := tree.PreOrder()
	at := slices.Index(pre, root)
	end := at + 1
	for end < len(pre) && tree.Depth(pre[end]) > tree.Depth(root) {
		end++
	}
	var want []string
	for _, i := range pre[at:end] {
		want = append(want, tree.Name(i))
	}
	sub, err := tree.Subtree(root)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, label+" subtree", sub, want)
	for _, i := range pre[:at] {
		if _, ok := sub.Index(tree.Name(i)); ok {
			t.Fatalf("%s: subtree of %d finds %q, which is outside it", label, root, tree.Name(i))
		}
	}
	// Simplify keeps every node here (every C is nonzero), in pre-order.
	simple, err := tree.Simplify()
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for _, i := range pre {
		want = append(want, tree.Name(i))
	}
	checkNames(t, label+" simplified", simple, want)
}

// TestNameTableReindex checks the reader's side of the table against a
// map oracle: Intern gives each name one id in order of first
// appearance, as a span of the text, and Reindex renumbers the ids to
// tree indices, drops the names the tree does not hold (the reader's
// input node) and copies the rest, in tree order, out of the text. With
// forced collisions the dropped names are removed from the middle of
// one long probe chain.
func TestNameTableReindex(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprintf("forced collisions %v", forced), func(t *testing.T) {
			if forced {
				forceCollisions(t)
			}
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(3000)
				if forced {
					n = 1 + rng.Intn(300)
				}
				checkNameTable(t, fmt.Sprintf("seed %d", seed), rng, n)
			}
		})
	}
}

func checkNameTable(t *testing.T, label string, rng *rand.Rand, n int) {
	t.Helper()
	var text strings.Builder
	type tok struct{ lo, hi int }
	var toks []tok
	for _, name := range randomNames(rng, n) {
		if name == "" {
			continue
		}
		text.WriteString(" ")
		toks = append(toks, tok{text.Len(), text.Len() + len(name)})
		text.WriteString(name)
	}
	x := NewNameTable(text.String(), rng.Intn(n+1)) // a small hint makes the table grow
	firstID := map[string]int32{}
	var byID []string
	for _, k := range toks {
		name := text.String()[k.lo:k.hi]
		id, added := x.Intern(k.lo, k.hi)
		want, seen := firstID[name]
		if !seen {
			want = int32(len(byID))
			firstID[name] = want
			byID = append(byID, name)
		}
		if id != want || added == seen {
			t.Fatalf("%s: Intern(%q) = %d, %v; want %d, %v", label, name, id, added, want, !seen)
		}
	}
	if x.Len() != len(byID) {
		t.Fatalf("%s: Len() = %d, want %d", label, x.Len(), len(byID))
	}
	for id, name := range byID {
		if got := x.Name(int32(id)); got != name {
			t.Fatalf("%s: Name(%d) = %q, want %q", label, id, got, name)
		}
	}
	if len(byID) < 2 {
		return
	}
	// A random tree order of all names but a few.
	perm := rng.Perm(len(byID))
	drop := 1 + rng.Intn(min(3, len(byID)-1))
	index := make([]int32, len(byID))
	for k, id := range perm {
		index[id] = max(int32(k-drop), -1)
	}
	var want []string
	for _, id := range perm[drop:] {
		want = append(want, byID[id])
	}
	x.Reindex(index)
	b := NewBuilderNames(len(want), x)
	for range want {
		b.MustRoot("", 1, 1e-15)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkNames(t, label, tree, want)
	for _, id := range perm[:drop] {
		if i, ok := tree.Index(byID[id]); ok {
			t.Fatalf("%s: Index(%q) = %d for a dropped name", label, byID[id], i)
		}
	}
}

// A Builder adopting a table must be handed the names of exactly the
// nodes it added.
func TestBuilderNamesCountsNames(t *testing.T) {
	x := NewNameTable("a b", 2)
	x.Intern(0, 1)
	x.Intern(2, 3)
	x.Reindex([]int32{0, 1})
	b := NewBuilderNames(1, x)
	b.MustRoot("a", 1, 1e-15)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "2 names for 1 nodes") {
		t.Fatalf("Build with 2 names for 1 node: %v", err)
	}
}
