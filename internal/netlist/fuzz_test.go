package netlist

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// FuzzParse checks Parse against the previous reader, kept verbatim in
// reference_test.go: the same accept/reject decision, the same error
// text, and for accepted decks the same title, input node, warnings and
// tree (fingerprint, orders, child lists, names, R and C). The one
// intended difference: a deck that repeats a resistor name must now be
// rejected, at the first repeating card, unless a card before it fails
// (see wantDuplicateError). Accepted decks must also yield a valid tree
// that round-trips through Format. The seeds run in the normal test
// suite; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"Vin in 0 1\nR1 in a 100\nC1 a 0 1p\n",
		basicDeck,
		"* only a comment",
		"V1 a 0 1\nR1 a b 1\nR2 b c 1\nR3 c a 1\nC1 b 0 1p\n", // loop
		"V1 a 0 1\nR1 a b -1\n",
		"+ dangling continuation",
		"V1 a 0 1\nR1 a b 1e309\nC1 b 0 1p\n", // overflow value
		"V1 a 0 1\nR1 a b 1k\nC1 b 0 1p\n.title x\n.end\n",
		"V1 a 0 1\nC1 a 0 1p\nR1 a b 1\nC2 b 0 1p\nL1 a b 1n\n",
		"V1 0 0 1\n",
		"R1\n",
		"V1 a 0 1\nR1 a a 1\n",
		"V1 a 0 1\nr1 A b 1\nc1 B 0 1p\n", // case-sensitive node names
		// CRLF line endings, no final newline, a lone CR line.
		"Vin in 0 1\r\nR1 in a 100\r\nC1 a 0 1p\r\n.end\r\n",
		"V1 a 0 1\t \r\nR1\ta\tb\t1 \r\nC1 b 0 1p",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 1p\n\r",
		// + continuations, also after a blank line and across "$ ".
		"Vin in 0 1\nR1 in a\n+ 100\nC1 a 0\n  + 1p\n",
		"\n+ R1 a b 1\nV1 a 0 1\nC1 b 0 1p\n",
		"Vin in 0 1\nR1 in a 100 $\n+ x\nC1 a 0 1p\n",
		".title a $\r\n+ b\r\nV1 x 0 1\r\nR1 x y 1\r\nC1 y 0 1p\r\n",
		// ; and $ comments.
		"Vin in 0 1 ; source\nR1 in a 100 $ wire\nC1 a 0 1p ; load $ x\n* full line\n  * indented\n",
		// GND/VSS aliases.
		"Vin in GND 1\nR1 in a 1k\nC1 a vss 1p\nR2 a b 1k\nC2 Ground b 2p\n",
		// Capacitors on the driven node.
		"Vin in 0 1\nCin in 0 2p\nCin2 0 in 1p\nR1 in a 10\nC1 a 0 1p\n",
		// Non-ASCII white space and case mapping.
		"Vin in 0 1\nR1 in a 10\nC1　a 0 1p\n\u0085+ x\n",
		".TİTLE x\nV1 a 0 1\nR1 a b 1\nC1 b 0 1p\n",
		"V1 a 0 1\nK1 a b 1\n",
		"V1 a 0 1\nR1 a \xff 1\nC1 \xff 0 1p\n",
		// Repeated resistor names (now rejected), before and after
		// other card errors, and before topology errors.
		"V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\nC2 c 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nR2 b c 1\nR2 c d 1\nR1 d e 1\nC1 e 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nR1 b c 1\nR2 c d xyz\n",
		"V1 a 0 1\nR1 a b 1\nR2 b c xyz\nR1 c d 1\n",
		"V1 a 0 1\nR1 a b 1\nR1 b\n+ c x\n",
		"R1 a b 1\nL1 a b 1\nR1 b c 1\n",
		"R1 a b 1\nr1 b c 1\nR1 c 0 1\nR1 a a 1\n",
		// Topology and value errors found after the cards are read.
		"V1 a 0 1\nR1 a b 1\nR2 a b 2\nC1 b 0 1p\n",
		"V1 s 0 1\nR1 s a 1\nR2 s b 2\nC1 a 0 1p\nC2 b 0 1p\nR3 a c 1\nC3 c 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 0\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nC2 b 0 -2p\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nC9 z 0 1p\nC8 y 0 1p\nC7 z 0 2p\n",
		"V1 a 0 1\nV2 a 0 1\nR1 a b 1\nC1 b 0 1p\nV3 0 b 1\n",
		// The one-pass scanner's edges. A ';' or "$ " right after the
		// fourth field, or inside it, and a ';' after a "$ ".
		"V1 a 0 1\nR1 a b 1;x\nC1 b 0 1p; y\n",
		"V1 a 0 1\nR1 a b 1k$ x\nC1 b 0 1p$ y\n",
		"V1 a 0 1\nR1 a b xyz$ q ;\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b $ x ;\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a $ b 1 ; c\nC1 b 0 1p\n",
		// A "$" whose space is trailing white space, and one that a
		// continuation's joining space turns into a comment.
		"V1 a 0 1\nR1 a b $ \nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b $\t\n+ 1\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b 1 x$\n+\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b 1$\u00a0\n+ x\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b\n+ 1 $ \u00a0\n+ ;\nC1 b 0 1p\n",
		// Tabs, CRs, U+00A0 and U+3000 between fields.
		"V1\ta\t0\t1\r\nR1\u00a0a\u3000b\t1\r\nC1 b\u00a00\u30001p\r\n",
		// A '+' continuation after a plain line, after a blank one and
		// after a comment; a title continued over lines.
		"V1 a 0 1\nR1 a b 1\n+ junk\nC1 b 0 1p\n",
		"V1 a 0 1\n\n+ R1 a b 1\nC1 b 0 1p\n",
		"V1 a 0 1\n* note\n+ R1 a b 1\nR1 a b 1\nC1 b 0 1p\n",
		".title one \n+ two\n+\n+ three ; four\nV1 a 0 1\nR1 a b 1\nC1 b 0 1p\n",
		"\n+ .title x\u00a0\n+ y\nV1 a 0 1\nR1 a b 1\nC1 b 0 1p\n",
		// Five or more fields.
		"V1 a 0 1 extra more\nR1 a b 1 2 3 4\nC1 b 0 1p x y z\n",
		// A 200-byte node name, and names that are prefixes of others.
		"V1 a 0 1\nR1 a " + strings.Repeat("n", 200) + " 1\nC1 " + strings.Repeat("n", 200) + " 0 1p\n",
		"V1 n 0 1\nR1 n n1 1\nR2 n1 n10 1\nR3 n10 n1x 1\nC1 n1x 0 1p\nC2 n1 0 1p\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, deck string) {
		want, wantErr := referenceParseString(deck)
		d, err := ParseString(deck)
		if dup := wantDuplicateError(deck, wantErr); dup != "" {
			if err == nil || err.Error() != dup {
				t.Fatalf("deck repeats a resistor name: error %v, want %q", err, dup)
			}
			return
		}
		sameParse(t, "ParseString", d, err, want, wantErr)
		rd, rerr := Parse(iotest.OneByteReader(strings.NewReader(deck)))
		sameParse(t, "Parse", rd, rerr, want, wantErr)
		if err != nil {
			return // rejected decks just need the reference's error
		}
		if err := d.Tree.Validate(); err != nil {
			t.Fatalf("accepted deck produced invalid tree: %v", err)
		}
		// Accepted decks must round-trip.
		if _, err := ParseString(Format(d.Tree, "fuzz")); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// sameParse fails t unless Parse's result equals the reference's.
func sameParse(t *testing.T, label string, got *Deck, err error, want *Deck, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", label, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference %q", label, err, wantErr)
		}
		return
	}
	if got.Title != want.Title || got.InputNode != want.InputNode || !reflect.DeepEqual(got.Warnings, want.Warnings) {
		t.Fatalf("%s: title/input/warnings %q %q %q, reference %q %q %q",
			label, got.Title, got.InputNode, got.Warnings, want.Title, want.InputNode, want.Warnings)
	}
	g, w := got.Tree, want.Tree
	if g.N() != w.N() || g.Fingerprint() != w.Fingerprint() {
		t.Fatalf("%s: %d nodes, fingerprint %x; reference %d nodes, %x", label, g.N(), g.Fingerprint(), w.N(), w.Fingerprint())
	}
	if !reflect.DeepEqual(g.PreOrder(), w.PreOrder()) || !reflect.DeepEqual(g.Roots(), w.Roots()) {
		t.Fatalf("%s: orders differ from the reference", label)
	}
	for i := 0; i < w.N(); i++ {
		if g.Name(i) != w.Name(i) || g.Parent(i) != w.Parent(i) || g.Depth(i) != w.Depth(i) ||
			math.Float64bits(g.R(i)) != math.Float64bits(w.R(i)) ||
			math.Float64bits(g.C(i)) != math.Float64bits(w.C(i)) {
			t.Fatalf("%s: node %d is %q parent %d R %v C %v; reference %q parent %d R %v C %v", label, i,
				g.Name(i), g.Parent(i), g.R(i), g.C(i), w.Name(i), w.Parent(i), w.R(i), w.C(i))
		}
		if !reflect.DeepEqual(g.Children(i), w.Children(i)) {
			t.Fatalf("%s: node %d children %v, reference %v", label, i, g.Children(i), w.Children(i))
		}
		if j, ok := g.Index(w.Name(i)); !ok || j != i {
			t.Fatalf("%s: Index(%q) = %d, %v; want %d", label, w.Name(i), j, ok, i)
		}
	}
}

// wantDuplicateError returns the error Parse must report for a deck
// that repeats a resistor name, or "" if deck repeats none. A card is
// read as the reference reader reads it, and the first card, in deck
// order, that repeats an earlier card's name fails with a duplicate-name
// error, unless reading had already failed before it. refErr is the
// reference reader's error for deck: since that reader stops at its
// first card error, an error it reports while reading, at an earlier
// line, is that earlier failure.
func wantDuplicateError(deck string, refErr error) string {
	sc := bufio.NewScanner(strings.NewReader(deck))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var logical []string
	var lineNos []int
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "+") {
			if len(logical) == 0 {
				return ""
			}
			logical[len(logical)-1] += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		logical = append(logical, line)
		lineNos = append(lineNos, n)
	}
	firstLine := map[string]int{}
	for k, line := range logical {
		fields := strings.Fields(refStripComment(line))
		if len(fields) < 4 || strings.ToLower(fields[0])[0] != 'r' {
			continue
		}
		if _, err := rctree.ParseValue(fields[3]); err != nil {
			continue // the reader fails at this card first
		}
		first, seen := firstLine[fields[0]]
		if !seen {
			firstLine[fields[0]] = lineNos[k]
			continue
		}
		if refErr != nil && readingErrorBefore(refErr.Error(), lineNos[k]) {
			return refErr.Error()
		}
		return fmt.Sprintf("netlist: line %d: duplicate resistor name %s (first at line %d)", lineNos[k], fields[0], first)
	}
	return ""
}

// readingErrorBefore reports whether msg is an error a reader reports
// while reading the deck, before any topology check, at a line before
// line. Each phrase below occurs in one such error and in no other (a
// name or value quoted in an error holds no white space).
func readingErrorBefore(msg string, line int) bool {
	for _, phrase := range []string{
		"netlist: read:", "continuation with no previous card", "needs '",
		"rctree: empty numeric value", " is not a number", "rctree: parse ",
		" has both terminals grounded", " couples two non-ground nodes",
		" must connect one node to ground", "second voltage source", "unsupported element ",
	} {
		if strings.Contains(msg, phrase) {
			var n int
			if _, err := fmt.Sscanf(msg, "netlist: line %d:", &n); err != nil {
				return true // a read error: it precedes every card
			}
			return n < line
		}
	}
	return false
}

// TestParseMatchesReferenceOnShuffledDecks runs the FuzzParse
// comparison on decks far larger than the fuzzer builds: random trees of
// up to 3000 nodes, written out and then with their R and C cards
// shuffled, so nodes appear before their parents and adjacency order
// differs from tree order. Two 100k-node decks shaped like the
// benchmark's big nets, one bushy and one with a 1500-node spine, are
// compared as written and shuffled: they check the adopted name index,
// the copied names and the last-name shortcut at full size.
func TestParseMatchesReferenceOnShuffledDecks(t *testing.T) {
	compare := func(label string, deck string) {
		t.Helper()
		want, wantErr := referenceParseString(deck)
		got, err := ParseString(deck)
		sameParse(t, label, got, err, want, wantErr)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	shuffled := func(seed int64, head, cards []string) string {
		cards = slices.Clone(cards)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
		return strings.Join(append(slices.Clone(head), cards...), "\n")
	}
	for seed := int64(1); seed <= 8; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{N: 500 * int(seed%6+1), Chaininess: 0.3})
		lines := strings.Split(strings.TrimSuffix(Format(tree, "shuffled"), ".end\n"), "\n")
		head, cards := lines[:2], lines[2:] // title comment and V card
		compare(fmt.Sprintf("seed %d", seed), shuffled(seed, head, cards))
	}
	for _, big := range []struct {
		name  string
		spine int
	}{{"bushy", 0}, {"spine", 1500}} {
		head := []string{"* " + big.name, "Vin in 0 1"}
		cards := bigDeckCards(31, 100000, big.spine)
		compare(big.name, strings.Join(append(slices.Clone(head), cards...), "\n")+"\n.end\n")
		compare(big.name+" shuffled", shuffled(32, head, cards))
	}
}

// bigDeckCards returns the R and C cards of an n-node deck shaped like
// the benchmark's big nets: node i is "n<i>", with an R card to its
// parent (the input "in" for node 0) and then a C card, and values
// log-uniform over 10..1000 ohm and 1f..1p with five significant
// digits. The first spine nodes form a chain; after them each node
// extends the previous one or hangs off a random earlier node, with
// equal odds.
func bigDeckCards(seed int64, n, spine int) []string {
	rng := rand.New(rand.NewSource(seed))
	value := func(lo, hi float64) string {
		v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
	cards := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		parent := "in"
		if i > 0 {
			p := i - 1
			if i >= spine && rng.Float64() >= 0.5 {
				p = rng.Intn(i)
			}
			parent = "n" + strconv.Itoa(p)
		}
		cards = append(cards,
			fmt.Sprintf("R%d %s n%d %s", i, parent, i, value(10, 1000)),
			fmt.Sprintf("C%d n%d 0 %s", i, i, value(1e-15, 1e-12)))
	}
	return cards
}

// bigDeck is the bushy 100k-node deck of bigDeckCards, as a file would
// hold it.
func bigDeck() string {
	return "* big\nVin in 0 1\n" + strings.Join(bigDeckCards(31, 100000, 0), "\n") + "\n.end\n"
}
