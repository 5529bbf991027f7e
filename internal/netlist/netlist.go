// Package netlist reads and writes RC trees as SPICE-style decks, the
// lingua franca of interconnect extraction tools:
//
//   - my interconnect net
//     Vin in 0 1
//     R1 in  n1 100
//     C1 n1  0  1p
//     R2 n1  n2 81.25
//     C2 n2  0  1p
//     .end
//
// Supported cards: R (resistor), C (capacitor to ground), V (the input
// source, identifying the driven node), comments (* or ;), .title,
// .end, and + continuation lines. Engineering suffixes (f p n u m k
// meg g t) are accepted on values. Node "0" (aliases gnd, vss) is
// ground.
//
// The resistor graph must form a tree rooted at the source node —
// exactly the RC-tree class the analyses in this repository are proven
// for — and the parser diagnoses violations (resistors to ground,
// floating caps, loops, disconnected elements, repeated resistor
// names) with line numbers.
package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"elmore/internal/rctree"
)

// Deck is a parsed netlist.
type Deck struct {
	Title     string
	InputNode string // the node driven by the V source
	Tree      *rctree.Tree
	// Warnings lists accepted-but-suspicious constructs (e.g. a
	// capacitor on the driven node, which an ideal source shorts out).
	Warnings []string
}

// maxLine is the length, in bytes, at which a physical line is too
// long: the token limit of the bufio.Scanner the reference reader in
// FuzzParse uses, kept so both reject the same decks.
const maxLine = 16 * 1024 * 1024

// Parse reads a deck as Read does and parses it; see ParseString.
func Parse(r io.Reader) (*Deck, error) {
	data, err := read(r)
	return parse(data, err)
}

// Read reads a whole deck from r into one string: a regular file up to
// the size Stat reports (bytes appended after that Stat are not read),
// any other reader, such as a pipe, stdin or a file whose reported size
// is 0, to EOF. A failed read is reported as Parse reports it.
func Read(r io.Reader) (string, error) {
	data, err := read(r)
	if err != nil {
		return "", scanErr(data, err)
	}
	return data, nil
}

// read is Read without the error ranking: on a failed read, data holds
// what was read before the error.
func read(r io.Reader) (data string, err error) {
	var sb strings.Builder
	switch src := r.(type) {
	case interface{ Len() int }: // strings.Reader, bytes.Reader, bytes.Buffer
		sb.Grow(src.Len())
	case *os.File:
		// A regular file is read straight into one buffer of its size,
		// which becomes the returned string without a copy: nothing else
		// ever references the buffer, so the string stays immutable. A
		// plain io.Copy would reach (*os.File).WriteTo, which allocates a
		// 32 KB copy buffer on every call, and string(buf) would
		// allocate the file's size twice. Pseudo-files such as those
		// under /proc report size 0 and are copied to EOF.
		if st, err := src.Stat(); err == nil && st.Mode().IsRegular() && st.Size() > 0 && int64(int(st.Size())) == st.Size() {
			buf := make([]byte, st.Size())
			n, err := io.ReadFull(src, buf)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = nil // the file shrank since the Stat
			}
			return unsafe.String(unsafe.SliceData(buf), n), err
		}
	}
	_, err = io.Copy(&sb, r)
	return sb.String(), err
}

// ParseString parses a deck held in a string. The returned deck and
// tree share no memory with s: node names are looked up as substrings
// of s while it is scanned, and each is copied once, in tree order, into
// the tree's own name string, so a retained tree does not keep the deck
// text alive.
func ParseString(s string) (*Deck, error) { return parse(s, nil) }

// span is a range of byte offsets into the deck text.
type span struct{ lo, hi int32 }

// parser is the reader's state: nodes are dense ids in order of first
// appearance, resistors are parallel arrays in deck order.
type parser struct {
	data string
	// names gives each node name (ground has none) its id. After the
	// walk, buildTree renumbers it to tree indices and the tree adopts
	// it as its names and name index.
	names    *rctree.NameTable
	lastName string // the name node looked up last, and its id
	lastID   int32
	capSum   []float64 // id -> summed grounded capacitance
	capLine  []int32   // id -> line of its last capacitor; 0 = none

	rName        []span   // resistor -> card name
	rKey         []uint64 // resistor -> name hash<<32 | resistor (see duplicateName)
	rA, rB       []int32  // resistor -> endpoint ids; ground = -1
	rVal         []float64
	rLine        []int32
	title        string
	src, srcLine int32 // driven node id (-1 = none yet) and its V card line
}

// parse reads the deck text in data. readErr is the error, if any, that
// ended reading data (see scanErr for where it ranks).
func parse(data string, readErr error) (*Deck, error) {
	if err := scanErr(data, readErr); err != nil {
		return nil, err
	}
	if len(data) > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: deck of %d bytes is over the %d-byte limit", len(data), math.MaxInt32)
	}
	// A tree has one node per resistor plus the source, and a deck
	// usually has an R and a C card per node: size the per-node and
	// per-resistor state for half its lines (a deck with more nodes just
	// grows the slices).
	hint := strings.Count(data, "\n")/2 + 1
	p := &parser{
		data:    data,
		names:   rctree.NewNameTable(data, hint),
		capSum:  make([]float64, 0, hint),
		capLine: make([]int32, 0, hint),
		rName:   make([]span, 0, hint),
		rKey:    make([]uint64, 0, hint),
		rA:      make([]int32, 0, hint),
		rB:      make([]int32, 0, hint),
		rVal:    make([]float64, 0, hint),
		rLine:   make([]int32, 0, hint),
		src:     -1,
	}
	sc := scanner{data: data}
	for sc.next() {
		if err := p.card(&sc); err != nil {
			// A repeated resistor name on an earlier card comes first.
			if dup := p.duplicateName(); dup != nil {
				return nil, dup
			}
			return nil, err
		}
	}
	if err := p.duplicateName(); err != nil {
		return nil, err
	}
	if p.src < 0 {
		return nil, fmt.Errorf("netlist: no voltage source found; add 'Vin <node> 0 1' to mark the input")
	}
	input := strings.Clone(p.names.Name(p.src))
	tree, warnings, err := p.buildTree()
	if err != nil {
		return nil, err
	}
	return &Deck{
		Title:     strings.Clone(p.title),
		InputNode: input,
		Tree:      tree,
		Warnings:  warnings,
	}, nil
}

// scanErr returns the errors that take precedence over every card
// error, in this order: a line of maxLine bytes or more (when it is the
// first line), a first line that continues no card, any longer line,
// then the read error.
func scanErr(data string, readErr error) error {
	first := data
	if end := strings.IndexByte(data, '\n'); end >= 0 {
		first = data[:end]
	}
	if len(first) >= maxLine {
		return fmt.Errorf("netlist: read: %w", bufio.ErrTooLong)
	}
	if continuation(data, 0) >= 0 {
		return errors.New("netlist: line 1: continuation with no previous card")
	}
	for rest := data; len(rest) >= maxLine; {
		end := strings.IndexByte(rest, '\n')
		if end < 0 {
			end = len(rest)
		}
		if end >= maxLine {
			return fmt.Errorf("netlist: read: %w", bufio.ErrTooLong)
		}
		rest = rest[min(end+1, len(rest)):]
	}
	if readErr != nil {
		return fmt.Errorf("netlist: read: %w", readErr)
	}
	return nil
}

// scanner reads a deck one card at a time. A card is a physical line
// and the '+' continuation lines after it, joined by a space; a ';', or
// failing one a '$' followed by a space, starts a comment that runs to
// the end of the card. One loop over the bytes finds the line ends, the
// continuations, the comment and the first four fields. A field never
// spans two physical lines, so every field is a substring of the deck.
type scanner struct {
	data   string
	off    int // start of the next physical line
	lineNo int // physical lines read

	// The card read last.
	line int       // its first physical line
	nf   int       // how many fields f holds
	f    [4]string // its leading fields
	at   [4]int    // where each field starts in data
	cut  int       // where its text ends: at its comment or its last line's end
	segs []span    // the text each of its physical lines adds
}

// next reads the card at s.off and reports whether there was one.
func (s *scanner) next() bool {
	data := s.data
	if s.off >= len(data) {
		return false
	}
	s.lineNo++
	s.line, s.nf, s.segs = s.lineNo, 0, s.segs[:0]
	semi, dollar := -1, -1 // the first ';' and the first '$' that starts a comment
	text := s.off          // where the text of the current physical line starts
	for i, first := s.off, true; ; first = false {
		start := i
		if semi < 0 {
			i = s.fields(i, &semi, &dollar)
		}
		if i < len(data) && data[i] != '\n' {
			if j := strings.IndexByte(data[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(data)
			}
		}
		// The line's text: a card's first line loses its trailing
		// spaces, tabs and CRs, a continuation line all white space
		// around what follows its '+'.
		var line string
		if first {
			line = trimRightBlank(data[text:i])
		} else {
			line = strings.TrimLeftFunc(data[start:i], unicode.IsSpace)
			text = i - len(line)
			line = strings.TrimRightFunc(line, unicode.IsSpace)
		}
		end := text + len(line)
		s.segs = append(s.segs, span{int32(text), int32(end)})
		s.off = min(i+1, len(data))
		plus := continuation(data, s.off)
		if plus < 0 {
			// A "$ " whose space was trailing white space is no comment.
			if dollar >= start && dollar+1 >= end {
				dollar = -1
			}
			s.cut = end
			break
		}
		// The joining space makes a '$' that ends this line a comment.
		if dollar < 0 && line != "" && line[len(line)-1] == '$' {
			dollar = end - 1
		}
		s.lineNo++
		i = plus
	}
	switch {
	case semi >= 0:
		s.cut = semi
	case dollar >= 0:
		s.cut = dollar
		for k := 0; k < s.nf; k++ {
			if s.at[k] >= dollar {
				s.nf = k
				break
			}
			if s.at[k]+len(s.f[k]) > dollar {
				s.f[k] = s.f[k][:dollar-s.at[k]]
			}
		}
	}
	return true
}

// fields reads the fields of the physical line at data[i:], up to its
// end or its first ';', splitting around white space exactly like
// strings.Fields. It keeps the first len(s.f) fields of the card and
// returns where it stopped. It notes in semi where it found a ';' and,
// if dollar is unset, in dollar the first '$' followed by a space.
func (s *scanner) fields(i int, semi, dollar *int) int {
	data := s.data
	for i < len(data) {
		// White space.
		if c := data[i]; c < utf8.RuneSelf {
			if c == '\n' {
				return i
			}
			if asciiSpace[c] {
				i++
				continue
			}
			if c == ';' {
				*semi = i
				return i
			}
		} else if r, w := utf8.DecodeRuneInString(data[i:]); unicode.IsSpace(r) {
			i += w
			continue
		}
		// A field.
		start := i
		for i < len(data) {
			c := data[i]
			if plain[c] {
				i++
				continue
			}
			if c == '$' {
				if *dollar < 0 && i+1 < len(data) && data[i+1] == ' ' {
					*dollar = i
				}
				i++
				continue
			}
			if c < utf8.RuneSelf {
				break // white space or ';'
			}
			r, w := utf8.DecodeRuneInString(data[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		if s.nf < len(s.f) {
			s.f[s.nf], s.at[s.nf] = data[start:i], start
			s.nf++
		}
	}
	return i
}

// text returns the card's text from data offset lo to hi, its lines
// joined by a space.
func (s *scanner) text(lo, hi int) string {
	k := 0
	for int(s.segs[k].hi) < lo {
		k++
	}
	if hi <= int(s.segs[k].hi) {
		return s.data[lo:hi]
	}
	b := []byte(s.data[lo:s.segs[k].hi])
	for k++; ; k++ {
		b = append(b, ' ')
		if sg := s.segs[k]; hi <= int(sg.hi) {
			return string(append(b, s.data[sg.lo:hi]...))
		}
		b = append(b, s.data[s.segs[k].lo:s.segs[k].hi]...)
	}
}

// continuation returns where the text after the '+' starts if the
// physical line at data[i:] is a continuation line, one whose first
// non-space character is '+', and -1 if it is not.
func continuation(data string, i int) int {
	for i < len(data) {
		c := data[i]
		if c == '+' {
			return i + 1
		}
		if c < utf8.RuneSelf {
			if c == '\n' || !asciiSpace[c] {
				return -1
			}
			i++
		} else {
			r, w := utf8.DecodeRuneInString(data[i:])
			if !unicode.IsSpace(r) {
				return -1
			}
			i += w
		}
	}
	return -1
}

// trimRightBlank drops trailing spaces, tabs and carriage returns.
func trimRightBlank(s string) string {
	for len(s) > 0 {
		switch s[len(s)-1] {
		case ' ', '\t', '\r':
			s = s[:len(s)-1]
		default:
			return s
		}
	}
	return s
}

// card reads the card the scanner read last.
func (p *parser) card(sc *scanner) error {
	f, nf, ln := &sc.f, sc.nf, sc.line
	if nf == 0 || f[0][0] == '*' {
		return nil // blank, or a comment line
	}
	switch cardLetter(f[0]) {
	case '.':
		switch strings.ToLower(f[0]) {
		case ".end":
			// Nothing to do; later lines are still read.
		case ".title":
			p.title = strings.TrimSpace(sc.text(sc.at[0]+len(f[0]), sc.cut))
		default:
			// Unknown dot-cards (.tran, .print, ...) are ignored: a
			// timing tool consumes topology, not simulation control.
		}
	case 'r':
		if nf < 4 {
			return fmt.Errorf("netlist: line %d: resistor needs 'Rname n1 n2 value'", ln)
		}
		v, err := rctree.ParseValue(f[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", ln, err)
		}
		p.rKey = append(p.rKey, maphash.String(nameSeed, f[0])&^math.MaxUint32|uint64(len(p.rName)))
		p.rName = append(p.rName, span{int32(sc.at[0]), int32(sc.at[0] + len(f[0]))})
		p.rA = append(p.rA, p.endpoint(sc, 1))
		p.rB = append(p.rB, p.endpoint(sc, 2))
		p.rVal = append(p.rVal, v)
		p.rLine = append(p.rLine, int32(ln))
	case 'c':
		if nf < 4 {
			return fmt.Errorf("netlist: line %d: capacitor needs 'Cname n1 n2 value'", ln)
		}
		v, err := rctree.ParseValue(f[3])
		if err != nil {
			return fmt.Errorf("netlist: line %d: %w", ln, err)
		}
		ga, gb := isGround(f[1]), isGround(f[2])
		var at int
		switch {
		case ga && gb:
			return fmt.Errorf("netlist: line %d: capacitor %s has both terminals grounded", ln, f[0])
		case gb:
			at = 1
		case ga:
			at = 2
		default:
			return fmt.Errorf("netlist: line %d: capacitor %s couples two non-ground nodes (%s, %s): not an RC tree", ln, f[0], f[1], f[2])
		}
		id := p.node(sc, at)
		p.capSum[id] += v // parallel caps sum
		p.capLine[id] = int32(ln)
	case 'v':
		if nf < 3 {
			return fmt.Errorf("netlist: line %d: source needs 'Vname n+ n-'", ln)
		}
		ga, gb := isGround(f[1]), isGround(f[2])
		var at int
		switch {
		case !ga && gb:
			at = 1
		case ga && !gb:
			at = 2
		default:
			return fmt.Errorf("netlist: line %d: source %s must connect one node to ground", ln, f[0])
		}
		id := p.node(sc, at)
		if p.src >= 0 && p.src != id {
			return fmt.Errorf("netlist: line %d: second voltage source (first at line %d); RC trees have a single input", ln, p.srcLine)
		}
		p.src, p.srcLine = id, int32(ln)
	default:
		return fmt.Errorf("netlist: line %d: unsupported element %q (only R, C, V cards)", ln, f[0])
	}
	return nil
}

// node returns the id of the non-ground node named by field k of the
// scanner's card, assigning the next id on first appearance. The name
// looked up last is answered without a table probe: a C card names the
// node its R card just added, and a chain's next R card names it again
// as the parent.
func (p *parser) node(sc *scanner, k int) int32 {
	name := sc.f[k]
	if name == p.lastName {
		return p.lastID
	}
	id, added := p.names.Intern(sc.at[k], sc.at[k]+len(name))
	if added {
		p.capSum = append(p.capSum, 0)
		p.capLine = append(p.capLine, 0)
	}
	p.lastName, p.lastID = name, id
	return id
}

// endpoint returns the id of the resistor endpoint in field k, or -1
// for ground.
func (p *parser) endpoint(sc *scanner, k int) int32 {
	if isGround(sc.f[k]) {
		return -1
	}
	return p.node(sc, k)
}

// str returns the deck text in sp.
func (p *parser) str(sp span) string { return p.data[sp.lo:sp.hi] }

// buildTree roots the resistor graph at the source node and constructs
// the rctree, validating the RC-tree topology class on the way. The
// graph is held as CSR adjacency (each node's resistors in deck order,
// one shared array) and walked breadth-first from the source; tree
// indices are the order nodes leave the queue.
func (p *parser) buildTree() (*rctree.Tree, []string, error) {
	m := len(p.rName)
	for e := 0; e < m; e++ {
		if p.rA[e] < 0 || p.rB[e] < 0 {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s connects to ground: not an RC tree", p.rLine[e], p.str(p.rName[e]))
		}
		if p.rA[e] == p.rB[e] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s is self-connected", p.rLine[e], p.str(p.rName[e]))
		}
	}
	nn := p.names.Len()
	adjStart := make([]int32, nn+1)
	for e := 0; e < m; e++ {
		adjStart[p.rA[e]+1]++
		adjStart[p.rB[e]+1]++
	}
	for i := 0; i < nn; i++ {
		adjStart[i+1] += adjStart[i]
	}
	adj := make([]int32, 2*m)
	fill := make([]int32, nn)
	copy(fill, adjStart)
	for e := int32(0); e < int32(m); e++ {
		a, b := p.rA[e], p.rB[e]
		adj[fill[a]] = e
		fill[a]++
		adj[fill[b]] = e
		fill[b]++
	}

	src := p.src
	var warnings []string
	if ln := p.capLine[src]; ln != 0 {
		warnings = append(warnings,
			fmt.Sprintf("line %d: %s capacitance on driven node %q is shorted by the ideal source and ignored",
				ln, rctree.FormatFarads(p.capSum[src]), p.names.Name(src)))
		p.capLine[src] = 0
	}

	far := func(e, from int32) int32 {
		if a := p.rA[e]; a != from {
			return a
		}
		return p.rB[e]
	}
	type queued struct{ node, parent, via int32 } // parent is a tree index or Source
	queue := make([]queued, 0, m)
	visited := make([]bool, m) // resistor used
	for _, e := range adj[adjStart[src]:adjStart[src+1]] {
		queue = append(queue, queued{far(e, src), rctree.Source, e})
		visited[e] = true
	}
	if len(queue) == 0 {
		return nil, nil, fmt.Errorf("netlist: no resistor connects to the input node %q", p.names.Name(src))
	}
	b := rctree.NewBuilderNames(nn-1, p.names)
	treeIndex := make([]int32, nn) // id -> tree index
	seen := make([]bool, nn)
	seen[src] = true
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		if seen[q.node] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s closes a loop at node %q: not a tree", p.rLine[q.via], p.str(p.rName[q.via]), p.names.Name(q.node))
		}
		seen[q.node] = true
		var id int
		var err error
		if q.parent == rctree.Source {
			id, err = b.Root(p.names.Name(q.node), p.rVal[q.via], p.capSum[q.node])
		} else {
			id, err = b.Attach(int(q.parent), p.names.Name(q.node), p.rVal[q.via], p.capSum[q.node])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("netlist: line %d: %w", p.rLine[q.via], err)
		}
		treeIndex[q.node] = int32(id)
		p.capLine[q.node] = 0
		for _, e := range adj[adjStart[q.node]:adjStart[q.node+1]] {
			if visited[e] {
				continue
			}
			visited[e] = true
			queue = append(queue, queued{far(e, q.node), int32(id), e})
		}
	}
	for e := 0; e < m; e++ {
		if !visited[e] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s (%s-%s) is not connected to the input", p.rLine[e], p.str(p.rName[e]), p.names.Name(p.rA[e]), p.names.Name(p.rB[e]))
		}
	}
	orphan := int32(-1)
	for id, ln := range p.capLine {
		if ln != 0 && (orphan < 0 || p.names.Name(int32(id)) < p.names.Name(orphan)) {
			orphan = int32(id)
		}
	}
	if orphan >= 0 {
		return nil, nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the input through resistors", p.capLine[orphan], p.names.Name(orphan))
	}
	// Every node but the source is now in the tree: renumber the name
	// table to tree indices, dropping the source, and hand it over.
	treeIndex[src] = -1
	p.names.Reindex(treeIndex)
	tree, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return tree, warnings, nil
}

// plain marks the bytes that continue a field and need no other look:
// ASCII, not white space, not ';' and not '$'.
var plain = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = !asciiSpace[c] && c != ';' && c != '$'
	}
	return t
}()

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// cardLetter returns the first byte of the lower-cased card name. Only
// a non-ASCII name needs the full Unicode lower-casing (two non-ASCII
// runes, U+0130 and U+212A, lower-case to ASCII letters).
func cardLetter(name string) byte {
	c := name[0]
	switch {
	case c >= utf8.RuneSelf:
		return strings.ToLower(name)[0]
	case 'A' <= c && c <= 'Z':
		return c + 'a' - 'A'
	}
	return c
}

// isGround reports whether a node name is ground: "0" or, in any case,
// gnd, vss or ground. No non-ASCII name lower-cases to one of these
// (the only non-ASCII runes with ASCII lower cases map to i and k), so
// an ASCII case fold decides it.
func isGround(s string) bool {
	switch len(s) {
	case 1:
		return s == "0"
	case 3:
		return equalFoldASCII(s, "gnd") || equalFoldASCII(s, "vss")
	case 6:
		return equalFoldASCII(s, "ground")
	}
	return false
}

// equalFoldASCII reports whether s equals the lower-case ASCII string
// lower with A-Z folded to a-z.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

var nameSeed = maphash.MakeSeed()

// duplicateName returns the error for the first resistor card, in deck
// order, whose name an earlier card has, or nil if every name differs.
// The reader runs it after the last card and before reporting any card
// error, so the error stands where a check at each card would put it.
//
// Each card's key holds a seeded hash of its name in the high 32 bits
// and the card's number in the low 32. Sorting the keys by hash, stably,
// brings equal names together, each run of equal hashes in card order;
// comparing the names within each run makes the check exact.
func (p *parser) duplicateName() error {
	keys := p.rKey
	sortByHash(keys)
	repeat, first := len(keys), -1
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
	run:
		for b := i + 1; b < j && int(uint32(keys[b])) < repeat; b++ {
			for a := i; a < b; a++ {
				if ka, kb := int(uint32(keys[a])), int(uint32(keys[b])); p.str(p.rName[ka]) == p.str(p.rName[kb]) {
					repeat, first = kb, ka
					break run
				}
			}
		}
		i = j
	}
	if first < 0 {
		return nil
	}
	return fmt.Errorf("netlist: line %d: duplicate resistor name %s (first at line %d)", p.rLine[repeat], p.str(p.rName[repeat]), p.rLine[first])
}

// radixMin is the key count from which sortByHash's radix sort is
// faster than a comparison sort; below it, the sort's two 64K-entry
// count passes cost more than they save.
const radixMin = 4096

// sortByHash sorts keys in ascending card order, as appended, by their
// high 32 bits, and keeps keys with equal high bits in card order. Large
// inputs take two passes of a least-significant-digit radix sort on 16
// bits each; each pass is stable. Small inputs are sorted whole: their
// low 32 bits are the ascending card numbers, so a plain sort orders
// them the same way.
func sortByHash(keys []uint64) {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return
	}
	tmp := make([]uint64, len(keys))
	count := make([]int, 1<<16)
	src, dst := keys, tmp
	for shift := 32; shift < 64; shift += 16 {
		clear(count)
		for _, k := range src {
			count[uint16(k>>shift)]++
		}
		sum := 0
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		for _, k := range src {
			d := uint16(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
}

// Write renders a tree as a SPICE deck with input node "in" and the
// given title. Node names are preserved. The result round-trips
// through Parse.
func Write(w io.Writer, t *rctree.Tree, title string) error {
	if title != "" {
		if _, err := fmt.Fprintf(w, "* %s\n", title); err != nil {
			return err
		}
	}
	// Pick an input node name that cannot collide with a tree node.
	src := "in"
	for {
		if _, taken := t.Index(src); !taken {
			break
		}
		src += "_"
	}
	if _, err := fmt.Fprintf(w, "Vin %s 0 1\n", src); err != nil {
		return err
	}
	rIdx, cIdx := 0, 0
	for _, i := range t.PreOrder() {
		parent := src
		if p := t.Parent(i); p != rctree.Source {
			parent = t.Name(p)
		}
		rIdx++
		if _, err := fmt.Fprintf(w, "R%d %s %s %.12g\n", rIdx, parent, t.Name(i), t.R(i)); err != nil {
			return err
		}
		if c := t.C(i); c > 0 {
			cIdx++
			if _, err := fmt.Fprintf(w, "C%d %s 0 %.12g\n", cIdx, t.Name(i), c); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, ".end")
	return err
}

// Format renders a tree as a deck string (see Write).
func Format(t *rctree.Tree, title string) string {
	var sb strings.Builder
	if err := Write(&sb, t, title); err != nil {
		// strings.Builder never errors; keep the signature honest anyway.
		panic(err)
	}
	return sb.String()
}
