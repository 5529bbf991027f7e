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
// tree share no memory with s: each node name is copied once, when it
// first appears, so a retained tree does not keep the deck text alive.
func ParseString(s string) (*Deck, error) { return parse(s, nil) }

// parser is the reader's state: nodes are dense ids in order of first
// appearance, resistors are parallel arrays in deck order.
type parser struct {
	// ids maps each node name to its id (ground has no id). Its keys
	// are the copies in names; after the walk, buildTree rewrites its
	// values to tree indices and the tree adopts it as its name index.
	ids      map[string]int
	names    []string        // id -> node name, copied into store
	store    strings.Builder // the current chunk of name storage
	lastName string          // the name node looked up last, and its id
	lastID   int32
	capSum   []float64 // id -> summed grounded capacitance
	capLine  []int32   // id -> line of its last capacitor; 0 = none

	rName        []string // resistor -> card name
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
	// A tree has one node per resistor plus the source: size the
	// per-node and per-resistor state for the cards that start a line
	// with R (an indented card just grows the slices).
	hint := resistorCards(data) + 1
	p := &parser{
		ids:     make(map[string]int, hint),
		names:   make([]string, 0, hint),
		capSum:  make([]float64, 0, hint),
		capLine: make([]int32, 0, hint),
		rName:   make([]string, 0, hint),
		rKey:    make([]uint64, 0, hint),
		rA:      make([]int32, 0, hint),
		rB:      make([]int32, 0, hint),
		rVal:    make([]float64, 0, hint),
		rLine:   make([]int32, 0, hint),
		src:     -1,
	}
	// Node names take about a tenth of a typical deck: one chunk of an
	// eighth of it holds them all.
	p.store.Grow(max(len(data)/8, minNameChunk))
	// Physical lines join into logical ones: a line whose first
	// non-space character is '+' continues the previous card. Only a
	// joined line is copied; any other is a substring of data.
	var cur string // logical line being assembled
	curLine := 0   // its first physical line; 0 = none yet
	var joined []byte
	joining := false
	emit := func() error {
		if curLine == 0 {
			return nil
		}
		if joining {
			cur = string(joined)
		}
		if err := p.card(cur, curLine); err != nil {
			// A repeated resistor name on an earlier card comes first.
			if dup := p.duplicateName(); dup != nil {
				return dup
			}
			return err
		}
		return nil
	}
	lineNo := 0
	for off := 0; off < len(data); {
		raw := data[off:]
		if end := strings.IndexByte(raw, '\n'); end >= 0 {
			raw = raw[:end]
			off += end + 1
		} else {
			off = len(data)
		}
		lineNo++
		line := trimRightBlank(raw)
		if rest, ok := continuation(line); ok {
			if !joining {
				joined = append(joined[:0], cur...)
				joining = true
			}
			joined = append(joined, ' ')
			joined = append(joined, rest...)
			continue
		}
		if err := emit(); err != nil {
			return nil, err
		}
		cur, curLine, joining = line, lineNo, false
	}
	if err := emit(); err != nil {
		return nil, err
	}
	if err := p.duplicateName(); err != nil {
		return nil, err
	}
	if p.src < 0 {
		return nil, fmt.Errorf("netlist: no voltage source found; add 'Vin <node> 0 1' to mark the input")
	}
	tree, warnings, err := p.buildTree()
	if err != nil {
		return nil, err
	}
	return &Deck{
		Title:     strings.Clone(p.title),
		InputNode: p.names[p.src],
		Tree:      tree,
		Warnings:  warnings,
	}, nil
}

// resistorCards counts the lines of data that start with R or r.
func resistorCards(data string) int {
	n := strings.Count(data, "\nR") + strings.Count(data, "\nr")
	if data != "" && (data[0] == 'R' || data[0] == 'r') {
		n++
	}
	return n
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
	if _, ok := continuation(trimRightBlank(first)); ok {
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

// continuation reports whether line is a '+' continuation line and
// returns the text it appends, trimmed.
func continuation(line string) (string, bool) {
	t := strings.TrimSpace(line)
	if t == "" || t[0] != '+' {
		return "", false
	}
	return strings.TrimSpace(t[1:]), true
}

// card reads one logical line.
func (p *parser) card(raw string, ln int) error {
	line := stripComment(raw)
	var f [4]string
	nf := fields(line, &f)
	if nf == 0 || f[0][0] == '*' {
		return nil // blank, or a comment line
	}
	switch cardLetter(f[0]) {
	case '.':
		switch strings.ToLower(f[0]) {
		case ".end":
			// Nothing to do; later lines are still read.
		case ".title":
			p.title = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0]))
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
		p.rName = append(p.rName, f[0])
		p.rA = append(p.rA, p.endpoint(f[1]))
		p.rB = append(p.rB, p.endpoint(f[2]))
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
		var at string
		switch {
		case ga && gb:
			return fmt.Errorf("netlist: line %d: capacitor %s has both terminals grounded", ln, f[0])
		case gb:
			at = f[1]
		case ga:
			at = f[2]
		default:
			return fmt.Errorf("netlist: line %d: capacitor %s couples two non-ground nodes (%s, %s): not an RC tree", ln, f[0], f[1], f[2])
		}
		id := p.node(at)
		p.capSum[id] += v // parallel caps sum
		p.capLine[id] = int32(ln)
	case 'v':
		if nf < 3 {
			return fmt.Errorf("netlist: line %d: source needs 'Vname n+ n-'", ln)
		}
		ga, gb := isGround(f[1]), isGround(f[2])
		var at string
		switch {
		case !ga && gb:
			at = f[1]
		case ga && !gb:
			at = f[2]
		default:
			return fmt.Errorf("netlist: line %d: source %s must connect one node to ground", ln, f[0])
		}
		id := p.node(at)
		if p.src >= 0 && p.src != id {
			return fmt.Errorf("netlist: line %d: second voltage source (first at line %d); RC trees have a single input", ln, p.srcLine)
		}
		p.src, p.srcLine = id, int32(ln)
	default:
		return fmt.Errorf("netlist: line %d: unsupported element %q (only R, C, V cards)", ln, f[0])
	}
	return nil
}

// node returns the id of a non-ground node name, assigning the next id
// on first appearance. The name looked up last is answered without a
// map probe: a C card names the node its R card just added, and a
// chain's next R card names it again as the parent.
func (p *parser) node(name string) int32 {
	if name == p.lastName {
		return p.lastID
	}
	id, ok := p.ids[name]
	if !ok {
		id = len(p.names)
		name = p.intern(name)
		p.ids[name] = id
		p.names = append(p.names, name)
		p.capSum = append(p.capSum, 0)
		p.capLine = append(p.capLine, 0)
	}
	p.lastName, p.lastID = p.names[id], int32(id)
	return int32(id)
}

// minNameChunk is the smallest chunk of name storage.
const minNameChunk = 64

// intern returns a copy of name in the reader's name storage. The
// storage is a chain of chunks, each a strings.Builder filled only up
// to the capacity it was grown to, so it never moves the bytes of a
// name it has handed out; a full chunk is left to the names in it and
// the next is twice its size.
func (p *parser) intern(name string) string {
	if p.store.Cap()-p.store.Len() < len(name) {
		size := max(2*p.store.Cap(), len(name), minNameChunk)
		p.store = strings.Builder{}
		p.store.Grow(size)
	}
	p.store.WriteString(name)
	s := p.store.String()
	return s[len(s)-len(name):]
}

// endpoint returns a resistor endpoint's id, or -1 for ground.
func (p *parser) endpoint(name string) int32 {
	if isGround(name) {
		return -1
	}
	return p.node(name)
}

// buildTree roots the resistor graph at the source node and constructs
// the rctree, validating the RC-tree topology class on the way. The
// graph is held as CSR adjacency (each node's resistors in deck order,
// one shared array) and walked breadth-first from the source; tree
// indices are the order nodes leave the queue.
func (p *parser) buildTree() (*rctree.Tree, []string, error) {
	m := len(p.rName)
	for e := 0; e < m; e++ {
		if p.rA[e] < 0 || p.rB[e] < 0 {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s connects to ground: not an RC tree", p.rLine[e], p.rName[e])
		}
		if p.rA[e] == p.rB[e] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s is self-connected", p.rLine[e], p.rName[e])
		}
	}
	nn := len(p.names)
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
				ln, rctree.FormatFarads(p.capSum[src]), p.names[src]))
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
		return nil, nil, fmt.Errorf("netlist: no resistor connects to the input node %q", p.names[src])
	}
	b := rctree.NewBuilderIndex(nn-1, p.ids)
	treeIndex := make([]int32, nn) // id -> tree index
	seen := make([]bool, nn)
	seen[src] = true
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		if seen[q.node] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s closes a loop at node %q: not a tree", p.rLine[q.via], p.rName[q.via], p.names[q.node])
		}
		seen[q.node] = true
		var id int
		var err error
		if q.parent == rctree.Source {
			id, err = b.Root(p.names[q.node], p.rVal[q.via], p.capSum[q.node])
		} else {
			id, err = b.Attach(int(q.parent), p.names[q.node], p.rVal[q.via], p.capSum[q.node])
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
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s (%s-%s) is not connected to the input", p.rLine[e], p.rName[e], p.names[p.rA[e]], p.names[p.rB[e]])
		}
	}
	orphan := int32(-1)
	for id, ln := range p.capLine {
		if ln != 0 && (orphan < 0 || p.names[id] < p.names[orphan]) {
			orphan = int32(id)
		}
	}
	if orphan >= 0 {
		return nil, nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the input through resistors", p.capLine[orphan], p.names[orphan])
	}
	// Every node but the source is now in the tree: turn the name map
	// into the tree's index in one pass (each write lands on the entry
	// just read) and hand it to the builder.
	for name, id := range p.ids {
		p.ids[name] = int(treeIndex[id])
	}
	delete(p.ids, p.names[src])
	tree, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return tree, warnings, nil
}

// fields splits line around runs of white space exactly like
// strings.Fields, storing up to len(f) leading fields in f, and returns
// how many it stored.
func fields(line string, f *[4]string) int {
	n := 0
	i := 0
	for n < len(f) {
		for i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
			} else if w := spaceWidth(line[i:]); w > 0 {
				i += w
			} else {
				break
			}
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
			} else if spaceWidth(line[i:]) > 0 {
				break
			} else {
				_, w := utf8.DecodeRuneInString(line[i:])
				i += w
			}
		}
		f[n] = line[start:i]
		n++
	}
	return n
}

// spaceWidth returns the byte width of the non-ASCII rune starting s if
// unicode.IsSpace holds for it, else 0.
func spaceWidth(s string) int {
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

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

// stripComment cuts a trailing comment off line: at the first ';', or
// failing one at the first '$' followed by a space. A line whose first
// non-space character is '*' is a comment as a whole; card drops it by
// its first field, which starts with that character.
func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		return line[:i]
	}
	for i := 0; ; {
		j := strings.IndexByte(line[i:], '$')
		if j < 0 {
			return line
		}
		i += j + 1
		if i < len(line) && line[i] == ' ' {
			return line[:i-1]
		}
	}
}

var nameSeed = maphash.MakeSeed()

// duplicateName returns the error for the first resistor card, in deck
// order, whose name an earlier card has, or nil if every name differs.
// The reader runs it after the last card and before reporting any card
// error, so the error stands where a check at each card would put it.
//
// Each card's key holds a seeded hash of its name in the high 32 bits
// and the card's number in the low 32. Sorting the keys brings equal
// names together, each run of equal hashes in card order; comparing the
// names within each run makes the check exact.
func (p *parser) duplicateName() error {
	keys := p.rKey
	slices.Sort(keys)
	repeat, first := len(keys), -1
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
	run:
		for b := i + 1; b < j && int(uint32(keys[b])) < repeat; b++ {
			for a := i; a < b; a++ {
				if ka, kb := int(uint32(keys[a])), int(uint32(keys[b])); p.rName[ka] == p.rName[kb] {
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
	return fmt.Errorf("netlist: line %d: duplicate resistor name %s (first at line %d)", p.rLine[repeat], p.rName[repeat], p.rLine[first])
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
