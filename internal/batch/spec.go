package batch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"

	"elmore/internal/gate"
	netlistpkg "elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
)

// JobSpec is one NDJSON job line, as read by the -jobs flag of
// boundstat and sta. A spec is a net job,
//
//	{"id":"n1","net":"nets/n1.sp","sinks":["out"],"rise":"1n"}
//
// a path job,
//
//	{"id":"p1","slew":"30p","stages":[{"cell":"inv_x1","net":"nets/n1.sp","sink":"out"}]}
//
// or — when "dt" is present alongside "net" — a transient sweep,
//
//	{"id":"t1","net":"nets/n1.sp","dt":"1p","sinks":["out"],"levels":[0.5]}
//
// Sinks defaults to every node of the net (for transient jobs it names
// the probes); rise defaults to "step" (a duration such as "0.5n"
// selects a saturated ramp, "0" degenerates to the step); slew defaults
// to the CLI's -slew value.
type JobSpec struct {
	ID string `json:"id,omitempty"`

	// TraceID, when set to a 32-hex-character lineage ID, continues an
	// existing trace instead of minting a fresh one — the hook a
	// sharding coordinator uses to keep one net's lineage intact across
	// worker processes. Malformed values are ignored (fresh mint).
	TraceID string `json:"trace_id,omitempty"`

	// Net jobs. Net names a netlist file; Netlist carries the deck text
	// inline (serve mode, where clients have no shared filesystem).
	// Setting both is an error.
	Net     string   `json:"net,omitempty"`     // netlist file
	Netlist string   `json:"netlist,omitempty"` // inline netlist text
	Sinks   []string `json:"sinks,omitempty"`
	Rise    string   `json:"rise,omitempty"`

	// Path jobs.
	Slew   string      `json:"slew,omitempty"` // input transition time
	Stages []StageSpec `json:"stages,omitempty"`

	// Transient-sweep jobs (net + dt): run the transient simulation and
	// report threshold crossings instead of the closed-form bounds.
	DT     string    `json:"dt,omitempty"`     // fixed step, e.g. "1p"
	TEnd   string    `json:"t_end,omitempty"`  // horizon; empty estimates one
	Method string    `json:"method,omitempty"` // "trap" (default) or "be"
	Levels []float64 `json:"levels,omitempty"` // thresholds; empty means {0.5}
}

// StageSpec is one stage of a path job: the driving cell, the driven
// net (file path or inline text, as in JobSpec), and the sink node
// feeding the next stage.
type StageSpec struct {
	Cell    string `json:"cell"`
	Net     string `json:"net,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Sink    string `json:"sink"`
}

// ReadSpecs decodes an NDJSON job stream: one JSON object per line,
// blank lines and #-comment lines skipped, nothing but whitespace after
// the object. Decode errors carry the line number.
func ReadSpecs(r io.Reader) ([]JobSpec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var specs []JobSpec
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := DecodeSpec(line)
		if err != nil {
			return nil, fmt.Errorf("batch: jobs line %d: %w", lineNo, err)
		}
		specs = append(specs, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: jobs: %w", err)
	}
	return specs, nil
}

// DecodeSpec decodes one job spec: one JSON object, with nothing but
// whitespace after it. ReadSpecs decodes every line with it and elmored
// every /v1/bound body, so the same rules hold on both paths. The
// common shape goes through scanSpec; everything scanSpec declines goes
// through decodeSpec.
func DecodeSpec(line string) (JobSpec, error) {
	if s, ok := scanSpec(line); ok {
		return s, nil
	}
	return decodeSpec(line)
}

// decodeSpec decodes one job line with encoding/json, refusing unknown
// fields and anything but whitespace after the first value. It is the
// only decoder for path and transient specs, and the reference
// scanSpec is tested against.
func decodeSpec(line string) (JobSpec, error) {
	var s JobSpec
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, err
	}
	if strings.TrimLeft(line[dec.InputOffset():], " \t\r\n") != "" {
		return JobSpec{}, errors.New("data after the JSON object")
	}
	return s, nil
}

// scanSpec decodes the common shape of a job line without reflection:
// one object whose keys, each at most once and spelled exactly so, are
// id, trace_id, net, netlist, rise, slew, dt, t_end and method with
// string values, and sinks with an array of strings. It declines
// everything else — stages, levels, null, \u escapes, invalid UTF-8 or
// control bytes, unknown, repeated or differently-cased keys, malformed
// or trailing text — so every line it accepts decodes as decodeSpec
// would decode it, and every other line keeps decodeSpec's result or
// error. A string without escapes is a substring of line.
func scanSpec(line string) (JobSpec, bool) {
	var s JobSpec
	p := specScanner{s: line}
	if !p.next('{') {
		return JobSpec{}, false
	}
	if !p.next('}') {
		var seen uint16
		for {
			key, ok := p.str()
			if !ok || !p.next(':') {
				return JobSpec{}, false
			}
			var bit uint16
			var dst *string
			switch key {
			case "id":
				bit, dst = 1<<0, &s.ID
			case "trace_id":
				bit, dst = 1<<1, &s.TraceID
			case "net":
				bit, dst = 1<<2, &s.Net
			case "netlist":
				bit, dst = 1<<3, &s.Netlist
			case "rise":
				bit, dst = 1<<4, &s.Rise
			case "slew":
				bit, dst = 1<<5, &s.Slew
			case "dt":
				bit, dst = 1<<6, &s.DT
			case "t_end":
				bit, dst = 1<<7, &s.TEnd
			case "method":
				bit, dst = 1<<8, &s.Method
			case "sinks":
				bit = 1 << 9
			default:
				return JobSpec{}, false
			}
			if seen&bit != 0 {
				return JobSpec{}, false
			}
			seen |= bit
			if dst != nil {
				*dst, ok = p.str()
			} else {
				s.Sinks, ok = p.strs()
			}
			if !ok {
				return JobSpec{}, false
			}
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return JobSpec{}, false
			}
		}
	}
	p.space()
	return s, p.i == len(p.s)
}

// specScanner is scanSpec's cursor over one line.
type specScanner struct {
	s string
	i int
}

// space skips JSON whitespace.
func (p *specScanner) space() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *specScanner) next(c byte) bool {
	p.space()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str skips whitespace and reads a string, decoding the escapes
// \" \\ \/ \b \f \n \r \t. It fails on anything else scanSpec
// declines: \u escapes, control bytes, invalid UTF-8, no closing quote.
func (p *specScanner) str() (string, bool) {
	if !p.next('"') {
		return "", false
	}
	start := p.i
	var unq strings.Builder // used from the first escape on
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch {
		case c == '"':
			v := p.s[start:p.i]
			p.i++
			if unq.Cap() == 0 {
				return v, true
			}
			unq.WriteString(v)
			return unq.String(), true
		case c == '\\':
			if p.i+1 == len(p.s) {
				return "", false
			}
			d := p.s[p.i+1]
			switch d {
			case '"', '\\', '/':
			case 'b':
				d = '\b'
			case 'f':
				d = '\f'
			case 'n':
				d = '\n'
			case 'r':
				d = '\r'
			case 't':
				d = '\t'
			default:
				return "", false
			}
			if unq.Cap() == 0 {
				unq.Grow(len(p.s) - start) // no decoded string outgrows the line
			}
			unq.WriteString(p.s[start:p.i])
			unq.WriteByte(d)
			p.i += 2
			start = p.i
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, n := utf8.DecodeRuneInString(p.s[p.i:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			p.i += n
		}
	}
	return "", false
}

// strs reads an array of strings. [] gives an empty non-nil slice, as
// encoding/json decodes it.
func (p *specScanner) strs() ([]string, bool) {
	if !p.next('[') {
		return nil, false
	}
	var stack [16]string
	vs := stack[:0]
	if !p.next(']') {
		for {
			v, ok := p.str()
			if !ok {
				return nil, false
			}
			vs = append(vs, v)
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return nil, false
			}
		}
	}
	return append(make([]string, 0, len(vs)), vs...), true
}

// ParseRise converts a -rise style token into a signal: "" or "step"
// yields the ideal step, a duration yields a saturated ramp (a zero
// duration degenerates to the step; negative durations are rejected).
func ParseRise(tok string) (signal.Signal, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" || tok == "step" {
		return signal.Step{}, nil
	}
	tr, err := rctree.ParseValue(tok)
	if err != nil {
		return nil, fmt.Errorf("rise %q: %w", tok, err)
	}
	s := signal.SaturatedRamp{Tr: tr}
	if err := signal.Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// TreeLoader resolves one spec net reference — a file path in net, or
// deck text in netlist (exactly one is non-empty) — into its RC tree.
// The hook lets a host intercept loads: a TreeCache serves repeated
// decks without re-parsing, and tests substitute synthetic trees
// without touching the filesystem.
type TreeLoader func(net, netlist string) (*rctree.Tree, error)

// DefaultTreeLoader opens net as a netlist file, or parses netlist as
// inline deck text, afresh on every call. It is what JobLoader uses
// when no loader is injected.
func DefaultTreeLoader(net, netlist string) (*rctree.Tree, error) {
	return loadTree(net, netlist, parseDeck)
}

// loadTree reads the deck a net reference names and hands its text to
// parse. Errors name the reference: os.Open's error for a file that
// cannot be opened, "<path>: netlist: ..." for a file that cannot be
// read or parsed, "inline netlist: ..." for inline text.
func loadTree(net, netlist string, parse func(text string) (*rctree.Tree, error)) (*rctree.Tree, error) {
	text, where := netlist, "inline netlist"
	if netlist == "" {
		var err error
		if text, err = readNet(net); err != nil {
			return nil, err
		}
		where = net
	}
	tree, err := parse(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	return tree, nil
}

// readNet reads the netlist file at path whole.
func readNet(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	text, err := netlistpkg.Read(f)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return text, nil
}

// parseDeck parses deck text into its RC tree.
func parseDeck(text string) (*rctree.Tree, error) {
	deck, err := netlistpkg.ParseString(text)
	if err != nil {
		return nil, err
	}
	return deck.Tree, nil
}

// JobLoader materializes a spec. Spec-level problems (no kind, bad rise
// or slew, unknown cell, missing library) come back as a pre-failed Job
// — never a hard error — so one bad line costs one error record in the
// batch output, in keeping with the engine's fail-soft policy. Netlists
// are resolved lazily inside the worker for the same reason, through
// load (nil means DefaultTreeLoader). defaultSlew is the path-job input
// slew used when the spec leaves "slew" empty; lib may be nil when no
// path jobs occur.
func (s JobSpec) JobLoader(lib *gate.Library, defaultSlew float64, load TreeLoader) Job {
	if load == nil {
		load = DefaultTreeLoader
	}
	j := Job{ID: s.ID}
	if s.TraceID != "" {
		j.Trace, _ = telemetry.ParseTraceID(s.TraceID)
	}
	if s.Net != "" && s.Netlist != "" {
		j.Err = fmt.Errorf("batch: spec sets both net and netlist")
		return j
	}
	isNet := s.Net != "" || s.Netlist != ""
	isPath := len(s.Stages) > 0
	isTran := s.DT != ""
	switch {
	case isNet && isPath:
		j.Err = fmt.Errorf("batch: spec sets both net and stages")
	case !isNet && !isPath:
		j.Err = fmt.Errorf("batch: spec sets neither net nor stages")
	case !isTran && (s.TEnd != "" || s.Method != "" || len(s.Levels) > 0):
		j.Err = fmt.Errorf("batch: spec sets transient fields without dt")
	case isTran && isPath:
		j.Err = fmt.Errorf("batch: spec sets both dt and stages")
	case isTran:
		input, err := ParseRise(s.Rise)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec: %w", err)
			return j
		}
		dt, err := rctree.ParseValue(s.DT)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec dt: %w", err)
			return j
		}
		var tEnd float64
		if s.TEnd != "" {
			if tEnd, err = rctree.ParseValue(s.TEnd); err != nil {
				j.Err = fmt.Errorf("batch: spec t_end: %w", err)
				return j
			}
		}
		method, err := parseMethod(s.Method)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec method: %w", err)
			return j
		}
		file, inline := s.Net, s.Netlist
		j.Tran = &TranJob{
			Load:   func() (*rctree.Tree, error) { return load(file, inline) },
			DT:     dt,
			TEnd:   tEnd,
			Method: method,
			Inputs: []signal.Signal{input},
			Probes: s.Sinks,
			Levels: s.Levels,
		}
	case isNet:
		input, err := ParseRise(s.Rise)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec: %w", err)
			return j
		}
		file, inline := s.Net, s.Netlist
		j.Net = &NetJob{
			Load:  func() (*rctree.Tree, error) { return load(file, inline) },
			Sinks: s.Sinks,
			Input: input,
		}
	default: // path job
		slew := defaultSlew
		if s.Slew != "" {
			v, err := rctree.ParseValue(s.Slew)
			if err != nil {
				j.Err = fmt.Errorf("batch: spec slew: %w", err)
				return j
			}
			slew = v
		}
		if lib == nil {
			j.Err = fmt.Errorf("batch: path job needs a cell library")
			return j
		}
		cells := make([]*gate.Cell, len(s.Stages))
		for i, st := range s.Stages {
			if st.Net != "" && st.Netlist != "" {
				j.Err = fmt.Errorf("batch: spec stage %d sets both net and netlist", i)
				return j
			}
			cell, err := lib.Get(st.Cell)
			if err != nil {
				j.Err = fmt.Errorf("batch: spec stage %d: %w", i, err)
				return j
			}
			cells[i] = cell
		}
		stages := s.Stages
		j.Path = &PathJob{
			Load: func() (*sta.Path, error) {
				p := sta.Path{InputSlew: slew}
				for i, st := range stages {
					tree, err := load(st.Net, st.Netlist)
					if err != nil {
						return nil, fmt.Errorf("stage %d: %w", i, err)
					}
					p.Stages = append(p.Stages, sta.Stage{Cell: cells[i], Net: tree, Sink: st.Sink})
				}
				return &p, nil
			},
		}
	}
	return j
}

// parseMethod maps a spec "method" token to the integrator.
func parseMethod(tok string) (sim.Method, error) {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "", "trap", "trapezoidal":
		return sim.Trapezoidal, nil
	case "be", "euler", "backward-euler":
		return sim.BackwardEuler, nil
	}
	return sim.Trapezoidal, fmt.Errorf("unknown method %q (want trap or be)", tok)
}
