package netlist

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"elmore/internal/moments"
	"elmore/internal/topo"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

const basicDeck = `* a small RC net
.title basic
Vin in 0 1
R1 in  n1 100
C1 n1  0  1p
R2 n1  n2 200
C2 n2  0  2p
R3 n1  n3 400 ; side branch
C3 n3  0  4p
.end
`

func TestParseBasic(t *testing.T) {
	d, err := ParseString(basicDeck)
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "basic" {
		t.Errorf("title = %q", d.Title)
	}
	if d.InputNode != "in" {
		t.Errorf("input node = %q", d.InputNode)
	}
	tree := d.Tree
	if tree.N() != 3 {
		t.Fatalf("N = %d, want 3", tree.N())
	}
	n1 := tree.MustIndex("n1")
	if tree.R(n1) != 100 || tree.C(n1) != 1e-12 {
		t.Errorf("n1: R=%v C=%v", tree.R(n1), tree.C(n1))
	}
	n2 := tree.MustIndex("n2")
	if tree.Parent(n2) != n1 || tree.R(n2) != 200 {
		t.Errorf("n2 wrong")
	}
	if len(d.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", d.Warnings)
	}
}

func TestParseContinuationAndCase(t *testing.T) {
	deck := `VIN IN 0 1
r1 IN a
+ 1k
c1 a GND 1p
`
	d, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Tree.MustIndex("a")
	if d.Tree.R(a) != 1000 {
		t.Errorf("R = %v, want 1k", d.Tree.R(a))
	}
}

func TestParseSourceOrientation(t *testing.T) {
	d, err := ParseString("V1 0 drv 1\nR1 drv x 10\nC1 x 0 1p\n")
	if err != nil {
		t.Fatal(err)
	}
	if d.InputNode != "drv" {
		t.Errorf("input = %q", d.InputNode)
	}
}

func TestParallelCapsSum(t *testing.T) {
	d, err := ParseString("Vin in 0 1\nR1 in a 10\nC1 a 0 1p\nC2 0 a 2p\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Tree.C(d.Tree.MustIndex("a")); !approx(got, 3e-12, 1e-12) {
		t.Errorf("summed cap = %v, want 3p", got)
	}
}

func TestCapOnDrivenNodeWarns(t *testing.T) {
	d, err := ParseString("Vin in 0 1\nCload in 0 5p\nR1 in a 10\nC1 a 0 1p\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Warnings) != 1 || !strings.Contains(d.Warnings[0], "shorted") {
		t.Errorf("warnings = %v", d.Warnings)
	}
	if d.Tree.N() != 1 {
		t.Errorf("N = %d", d.Tree.N())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, deck, wantSub string
	}{
		{"no source", "R1 a b 1\nC1 b 0 1p\n", "no voltage source"},
		{"two sources", "V1 a 0 1\nV2 b 0 1\nR1 a b 1\nC1 b 0 1p\n", "second voltage source"},
		{"floating source", "V1 a b 1\nR1 a b 1\n", "must connect one node to ground"},
		{"resistor to ground", "V1 a 0 1\nR1 a 0 1\nC1 a 0 1p\n", "connects to ground"},
		{"self resistor", "V1 a 0 1\nR1 a a 1\n", "self-connected"},
		{"coupling cap", "V1 a 0 1\nR1 a b 1\nC1 a b 1p\n", "two non-ground nodes"},
		{"grounded cap", "V1 a 0 1\nR1 a b 1\nC1 0 gnd 1p\n", "both terminals grounded"},
		{"loop", "V1 a 0 1\nR1 a b 1\nR2 b c 1\nR3 c a 1\nC1 b 0 1p\n", "loop"},
		{"disconnected resistor", "V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nR9 x y 1\n", "not connected"},
		{"orphan cap", "V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nC9 z 0 1p\n", "not connected"},
		{"no input resistor", "V1 a 0 1\nC1 b 0 1p\n", "no resistor connects"},
		{"bad value", "V1 a 0 1\nR1 a b xyz\n", "not a number"},
		{"short R card", "V1 a 0 1\nR1 a b\n", "needs"},
		{"short C card", "V1 a 0 1\nR1 a b 1\nC1 b\n", "needs"},
		{"short V card", "V1 a\n", "needs"},
		{"unknown element", "V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nL1 a b 1n\n", "unsupported element"},
		{"dangling continuation", "+ 1k\n", "continuation"},
		{"negative R", "V1 a 0 1\nR1 a b -5\nC1 b 0 1p\n", "positive"},
		// A repeated resistor name is an error in its own right: the
		// second resistor must not vanish (taking node c with it) nor
		// get c reported as unconnected.
		{"duplicate resistor name", "V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\n", "line 3: duplicate resistor name R1 (first at line 2)"},
		{"duplicate resistor name, cap on dropped node", "V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\nC2 c 0 1p\n", "line 3: duplicate resistor name R1 (first at line 2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.deck)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestDotCardsIgnored(t *testing.T) {
	deck := "V1 a 0 1\nR1 a b 1\nC1 b 0 1p\n.tran 1n 10n\n.print v(b)\n.end\nthis garbage is after .end but still scanned\n"
	// Garbage after .end is still parsed in this simple reader; make it
	// a comment instead to keep the deck valid.
	deck = strings.Replace(deck, "this garbage is after .end but still scanned\n", "* trailing comment\n", 1)
	if _, err := ParseString(deck); err != nil {
		t.Fatalf("dot cards should be ignored: %v", err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		orig := topo.RandomSmall(seed, 30)
		deck := Format(orig, "round trip")
		d, err := ParseString(deck)
		if err != nil {
			return false
		}
		got := d.Tree
		if got.N() != orig.N() {
			return false
		}
		origTD := moments.ElmoreDelays(orig)
		gotTD := moments.ElmoreDelays(got)
		for i := 0; i < orig.N(); i++ {
			name := orig.Name(i)
			j, ok := got.Index(name)
			if !ok {
				return false
			}
			if !approx(got.R(j), orig.R(i), 1e-9) || !approx(got.C(j), orig.C(i), 1e-9) {
				return false
			}
			if !approx(gotTD[j], origTD[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteFig1GoldenShape(t *testing.T) {
	deck := Format(topo.Fig1Tree(), "fig 1")
	if !strings.HasPrefix(deck, "* fig 1\nVin in 0 1\n") {
		t.Errorf("header wrong:\n%s", deck)
	}
	if !strings.Contains(deck, ".end") {
		t.Errorf("missing .end")
	}
	// 7 resistors and 7 capacitors.
	if got := strings.Count(deck, "\nR"); got != 7 {
		t.Errorf("resistor cards = %d, want 7", got)
	}
	if got := strings.Count(deck, "\nC"); got != 7 {
		t.Errorf("capacitor cards = %d, want 7", got)
	}
}

func TestWriteAvoidsNameCollision(t *testing.T) {
	d, err := ParseString("Vsrc src 0 1\nR1 src in 10\nC1 in 0 1p\n")
	if err != nil {
		t.Fatal(err)
	}
	deck := Format(d.Tree, "")
	if !strings.Contains(deck, "Vin in_ 0 1") {
		t.Errorf("collision not avoided:\n%s", deck)
	}
	if _, err := ParseString(deck); err != nil {
		t.Errorf("re-parse failed: %v", err)
	}
}

func TestZeroCapNodesOmittedFromDeck(t *testing.T) {
	d, err := ParseString("Vin in 0 1\nR1 in j 10\nR2 j a 10\nC1 a 0 1p\n")
	if err != nil {
		t.Fatal(err)
	}
	deck := Format(d.Tree, "")
	if strings.Contains(deck, "C2") {
		t.Errorf("zero cap should not be emitted:\n%s", deck)
	}
	d2, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Tree.C(d2.Tree.MustIndex("j")) != 0 {
		t.Errorf("junction cap should stay 0")
	}
}

// Parse of a regular file copies it into a string of its exact size
// through a buffer no larger than the file. Going through io.Copy
// instead cost a 32 KB copy buffer per call: 49.9 KB allocated per Parse
// of a 1.6 KB deck file against 14.9 KB for ParseString of the same
// text.
func TestParseFileAllocs(t *testing.T) {
	deck := Format(topo.Random(7, topo.RandomOptions{N: 32}), "allocs")
	path := filepath.Join(t.TempDir(), "deck.sp")
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, _ := allocs(t, 200, func() (*Deck, error) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return Parse(f)
	})
	fromString, _ := allocs(t, 200, func() (*Deck, error) { return ParseString(deck) })
	if fromFile > 1.5*fromString {
		t.Fatalf("Parse of a %d-byte deck file allocates %.0f B, ParseString %.0f B: want at most 1.5x", len(deck), fromFile, fromString)
	}
}

// allocs returns the heap bytes and objects parse allocates per call,
// averaged over runs calls.
func allocs(t *testing.T, runs int, parse func() (*Deck, error)) (bytes, objects float64) {
	t.Helper()
	if _, err := parse(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parse(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// The reader of a big deck allocates a bounded number of objects and
// bytes: the name table, flat per-node and per-resistor arrays, the
// duplicate check's sort buffers and the tree. For the bushy 100k-node
// deck of bigDeckCards the reader takes 39 objects and 16.27 MB; the
// budgets are those plus 10%. The object budget catches a string
// allocated per name or value (100k objects); the byte budget catches a
// second name index (2.1 MB at this size).
func TestParseBigDeckAllocs(t *testing.T) {
	deck := bigDeck()
	bytes, objects := allocs(t, 3, func() (*Deck, error) { return ParseString(deck) })
	const maxObjects, maxBytes = 43, 17.9e6
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("ParseString of a %d-byte, 100k-node deck allocates %.0f objects and %.2f MB; budget %d objects, %.2f MB",
			len(deck), objects, bytes/1e6, maxObjects, maxBytes/1e6)
	}
}

// A parsed tree keeps its nodes in flat arrays: parent links, R and C,
// the child lists, the names in one string with their offsets, and the
// name index. For the bushy 100k-node deck of bigDeckCards that is
// 59.0 bytes of heap per node, the budget rounded up to a whole byte;
// the reader that kept a name map and a string header per node left
// 85.9.
func TestParsedTreeHeapPerNode(t *testing.T) {
	deck := bigDeck()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(d.Tree.N())
	runtime.KeepAlive(d)
	runtime.KeepAlive(deck)
	const maxPerNode = 60
	if perNode > maxPerNode {
		t.Fatalf("a parsed %d-node tree keeps %.1f bytes of heap per node; budget %d", d.Tree.N(), perNode, maxPerNode)
	}
}

// A parsed tree keeps no deck text reachable: dropping the text of a
// parsed deck frees at least the text's size while the tree lives.
func TestParsedTreeRetainsNoDeckText(t *testing.T) {
	deck := bigDeck()
	size := uint64(len(deck))
	if size < 4<<20 {
		t.Fatalf("deck is %d bytes, want at least 4 MB", size)
	}
	d, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(deck)
	deck = ""
	runtime.GC()
	runtime.ReadMemStats(&without)
	if with.HeapAlloc < without.HeapAlloc+size {
		t.Fatalf("dropping a %d-byte deck freed %d bytes of heap while its tree lives: the tree keeps deck text reachable",
			size, int64(with.HeapAlloc)-int64(without.HeapAlloc))
	}
	if _, ok := d.Tree.Index("n99999"); !ok || d.Tree.N() != 100000 {
		t.Fatal("the tree lost nodes")
	}
}

// Read hands back the text Parse parses, and fails as Parse fails.
func TestReadMatchesParse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deck.sp")
	if err := os.WriteFile(path, []byte(basicDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	read := func(path string) (string, error) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return Read(f)
	}
	parse := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, err = Parse(f)
		return err
	}
	if text, err := read(path); err != nil || text != basicDeck {
		t.Fatalf("Read of a deck file = %q, %v; want its text", text, err)
	}
	_, readErr := read(dir)
	parseErr := parse(dir)
	if readErr == nil || parseErr == nil || readErr.Error() != parseErr.Error() {
		t.Fatalf("Read of a directory: %v; Parse: %v; want the same error", readErr, parseErr)
	}
	// A pseudo-file reports size 0 but has content: it is read to EOF.
	if st, err := os.Stat("/proc/self/stat"); err == nil && st.Mode().IsRegular() && st.Size() == 0 {
		if text, err := read("/proc/self/stat"); err != nil || text == "" {
			t.Fatalf("Read of /proc/self/stat = %q, %v; want its content", text, err)
		}
	}
}

// BenchmarkParseBigDeck parses the bushy 100k-node deck of
// bigDeckCards, shaped like the benchmark's big nets.
func BenchmarkParseBigDeck(b *testing.B) {
	deck := bigDeck()
	b.SetBytes(int64(len(deck)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(deck); err != nil {
			b.Fatal(err)
		}
	}
}
