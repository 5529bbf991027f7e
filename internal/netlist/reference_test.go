package netlist

// The deck reader as it stood before the index-based rewrite, kept
// verbatim (identifiers prefixed with ref/reference) as the oracle
// FuzzParse checks Parse against. Its one known defect: it marks
// resistors visited by name, so a second resistor reusing a name is
// silently dropped; Parse now rejects such decks.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"elmore/internal/rctree"
)

type refResistor struct {
	name, a, b string
	value      float64
	line       int
}

type refCapacitor struct {
	name, node string
	value      float64
	line       int
}

// referenceParse reads a deck.
func referenceParse(r io.Reader) (*Deck, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var physical []string // logical lines after joining continuations
	var lineNos []int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "+") {
			if len(physical) == 0 {
				return nil, fmt.Errorf("netlist: line %d: continuation with no previous card", lineNo)
			}
			physical[len(physical)-1] += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		physical = append(physical, line)
		lineNos = append(lineNos, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}

	d := &Deck{}
	var res []refResistor
	var caps []refCapacitor
	sourceNode := ""
	sourceLine := 0

	for idx, raw := range physical {
		ln := lineNos[idx]
		line := refStripComment(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		card := strings.ToLower(fields[0])
		switch {
		case strings.HasPrefix(card, "."):
			switch {
			case card == ".end":
				// done; ignore the rest
			case card == ".title":
				d.Title = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))
			default:
				// Unknown dot-cards (.tran, .print, ...) are ignored: a
				// timing tool consumes topology, not simulation control.
			}
		case card[0] == 'r':
			if len(fields) < 4 {
				return nil, fmt.Errorf("netlist: line %d: resistor needs 'Rname n1 n2 value'", ln)
			}
			v, err := rctree.ParseValue(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", ln, err)
			}
			res = append(res, refResistor{fields[0], refCanonNode(fields[1]), refCanonNode(fields[2]), v, ln})
		case card[0] == 'c':
			if len(fields) < 4 {
				return nil, fmt.Errorf("netlist: line %d: capacitor needs 'Cname n1 n2 value'", ln)
			}
			v, err := rctree.ParseValue(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", ln, err)
			}
			a, b := refCanonNode(fields[1]), refCanonNode(fields[2])
			switch {
			case a == refGround && b == refGround:
				return nil, fmt.Errorf("netlist: line %d: capacitor %s has both terminals grounded", ln, fields[0])
			case b == refGround:
				caps = append(caps, refCapacitor{fields[0], a, v, ln})
			case a == refGround:
				caps = append(caps, refCapacitor{fields[0], b, v, ln})
			default:
				return nil, fmt.Errorf("netlist: line %d: capacitor %s couples two non-ground nodes (%s, %s): not an RC tree", ln, fields[0], a, b)
			}
		case card[0] == 'v':
			if len(fields) < 3 {
				return nil, fmt.Errorf("netlist: line %d: source needs 'Vname n+ n-'", ln)
			}
			a, b := refCanonNode(fields[1]), refCanonNode(fields[2])
			node := ""
			switch {
			case a != refGround && b == refGround:
				node = a
			case a == refGround && b != refGround:
				node = b
			default:
				return nil, fmt.Errorf("netlist: line %d: source %s must connect one node to ground", ln, fields[0])
			}
			if sourceNode != "" && sourceNode != node {
				return nil, fmt.Errorf("netlist: line %d: second voltage source (first at line %d); RC trees have a single input", ln, sourceLine)
			}
			sourceNode = node
			sourceLine = ln
		default:
			return nil, fmt.Errorf("netlist: line %d: unsupported element %q (only R, C, V cards)", ln, fields[0])
		}
	}

	if sourceNode == "" {
		return nil, fmt.Errorf("netlist: no voltage source found; add 'Vin <node> 0 1' to mark the input")
	}
	d.InputNode = sourceNode

	tree, warnings, err := refBuildTree(sourceNode, res, caps)
	if err != nil {
		return nil, err
	}
	d.Tree = tree
	d.Warnings = warnings
	return d, nil
}

// referenceParseString parses a deck held in a string.
func referenceParseString(s string) (*Deck, error) {
	return referenceParse(strings.NewReader(s))
}

const refGround = "0"

func refCanonNode(s string) string {
	switch strings.ToLower(s) {
	case "0", "gnd", "vss", "ground":
		return refGround
	default:
		return s
	}
}

func refStripComment(line string) string {
	t := strings.TrimSpace(line)
	if strings.HasPrefix(t, "*") {
		return ""
	}
	if i := strings.IndexAny(line, ";"); i >= 0 {
		return line[:i]
	}
	if i := strings.Index(line, "$ "); i >= 0 {
		return line[:i]
	}
	return line
}

// refBuildTree roots the resistor graph at the source node and constructs
// the rctree, validating the RC-tree topology class on the way.
func refBuildTree(source string, res []refResistor, caps []refCapacitor) (*rctree.Tree, []string, error) {
	adj := make(map[string][]refResistor)
	for _, r := range res {
		if r.a == refGround || r.b == refGround {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s connects to ground: not an RC tree", r.line, r.name)
		}
		if r.a == r.b {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s is self-connected", r.line, r.name)
		}
		adj[r.a] = append(adj[r.a], r)
		adj[r.b] = append(adj[r.b], r)
	}
	capAt := make(map[string]float64)
	capLine := make(map[string]int)
	for _, c := range caps {
		capAt[c.node] += c.value // parallel caps sum
		capLine[c.node] = c.line
	}

	var warnings []string
	if cv, ok := capAt[source]; ok {
		warnings = append(warnings,
			fmt.Sprintf("line %d: %s capacitance on driven node %q is shorted by the ideal source and ignored",
				capLine[source], rctree.FormatFarads(cv), source))
		delete(capAt, source)
	}

	b := rctree.NewBuilder()
	visitedEdges := make(map[string]bool) // resistor name -> used
	type queued struct {
		node   string
		parent int // rctree index or Source
		via    refResistor
	}
	var queue []queued
	for _, r := range adj[source] {
		far := r.a
		if far == source {
			far = r.b
		}
		queue = append(queue, queued{far, rctree.Source, r})
		visitedEdges[r.name] = true
	}
	if len(queue) == 0 {
		return nil, nil, fmt.Errorf("netlist: no resistor connects to the input node %q", source)
	}
	seen := map[string]bool{source: true}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if seen[q.node] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s closes a loop at node %q: not a tree", q.via.line, q.via.name, q.node)
		}
		seen[q.node] = true
		var id int
		var err error
		if q.parent == rctree.Source {
			id, err = b.Root(q.node, q.via.value, capAt[q.node])
		} else {
			id, err = b.Attach(q.parent, q.node, q.via.value, capAt[q.node])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("netlist: line %d: %w", q.via.line, err)
		}
		delete(capAt, q.node)
		for _, r := range adj[q.node] {
			if visitedEdges[r.name] {
				continue
			}
			visitedEdges[r.name] = true
			far := r.a
			if far == q.node {
				far = r.b
			}
			queue = append(queue, queued{far, id, r})
		}
	}
	for _, r := range res {
		if !visitedEdges[r.name] {
			return nil, nil, fmt.Errorf("netlist: line %d: resistor %s (%s-%s) is not connected to the input", r.line, r.name, r.a, r.b)
		}
	}
	if len(capAt) > 0 {
		var orphans []string
		for node := range capAt {
			orphans = append(orphans, node)
		}
		sort.Strings(orphans)
		return nil, nil, fmt.Errorf("netlist: line %d: capacitor node %q is not connected to the input through resistors", capLine[orphans[0]], orphans[0])
	}
	tree, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return tree, warnings, nil
}
