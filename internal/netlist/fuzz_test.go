package netlist

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"elmore/internal/topo"
)

// FuzzParse checks Parse against the previous reader, kept verbatim in
// reference_test.go: the same accept/reject decision, the same error
// text, and for accepted decks the same title, input node, warnings and
// tree (fingerprint, orders, child lists, names, R and C). The one
// intended difference: a deck that repeats a resistor name must now be
// rejected. Accepted decks must also yield a valid tree that
// round-trips through Format. The seeds run in the normal test suite;
// `go test -fuzz=FuzzParse` explores further.
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
		// Repeated resistor names (now rejected).
		"V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nR1 b c 1\nC1 b 0 1p\nC2 c 0 1p\n",
		// Topology and value errors found after the cards are read.
		"V1 a 0 1\nR1 a b 1\nR2 a b 2\nC1 b 0 1p\n",
		"V1 s 0 1\nR1 s a 1\nR2 s b 2\nC1 a 0 1p\nC2 b 0 1p\nR3 a c 1\nC3 c 0 1p\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 0\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nC2 b 0 -2p\n",
		"V1 a 0 1\nR1 a b 1\nC1 b 0 1p\nC9 z 0 1p\nC8 y 0 1p\nC7 z 0 2p\n",
		"V1 a 0 1\nV2 a 0 1\nR1 a b 1\nC1 b 0 1p\nV3 0 b 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, deck string) {
		want, wantErr := referenceParseString(deck)
		d, err := ParseString(deck)
		if name := repeatedResistorName(deck); name != "" {
			if err == nil {
				t.Fatalf("deck repeats resistor name %s but was accepted", name)
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
	if !reflect.DeepEqual(g.PreOrder(), w.PreOrder()) || !reflect.DeepEqual(g.PostOrder(), w.PostOrder()) ||
		!reflect.DeepEqual(g.Roots(), w.Roots()) {
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

// repeatedResistorName returns a resistor card name that occurs twice
// in deck, read the way the reference reader reads cards, or "".
func repeatedResistorName(deck string) string {
	sc := bufio.NewScanner(strings.NewReader(deck))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var logical []string
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "+") {
			if len(logical) == 0 {
				return ""
			}
			logical[len(logical)-1] += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		logical = append(logical, line)
	}
	seen := map[string]bool{}
	for _, line := range logical {
		fields := strings.Fields(refStripComment(line))
		if len(fields) < 4 || strings.ToLower(fields[0])[0] != 'r' {
			continue
		}
		if seen[fields[0]] {
			return fields[0]
		}
		seen[fields[0]] = true
	}
	return ""
}

// TestParseMatchesReferenceOnShuffledDecks runs the FuzzParse
// comparison on decks far larger than the fuzzer builds: random trees of
// up to 3000 nodes, written out and then with their R and C cards
// shuffled, so nodes appear before their parents and adjacency order
// differs from tree order.
func TestParseMatchesReferenceOnShuffledDecks(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{N: 500 * int(seed%6+1), Chaininess: 0.3})
		lines := strings.Split(strings.TrimSuffix(Format(tree, "shuffled"), ".end\n"), "\n")
		head, cards := lines[:2], lines[2:] // title comment and V card
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
		deck := strings.Join(append(head, cards...), "\n")
		want, wantErr := referenceParseString(deck)
		got, err := ParseString(deck)
		sameParse(t, fmt.Sprintf("seed %d", seed), got, err, want, wantErr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
