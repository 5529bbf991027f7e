package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records spans around the harness's calls into each layer. A
// span is named "<layer>.<op>"; its self time is its duration minus the
// time its child spans cover. Spans are kept in memory (the first
// keepSpans of them verbatim, all of them in the per-name totals) and
// written out once, at the end of the run. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []spanRec
	dropped int64
	self    map[string]int64 // span name -> summed self time, ns
	dur     map[string]int64 // span name -> summed duration, ns
	count   map[string]int64
	stack   []openSpan // nested spans of the single-goroutine callers
}

// keepSpans bounds the spans written to the trace file; totals keep
// counting past it.
const keepSpans = 50000

type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index in the written spans; -1 for a root
	ID     string `json:"id,omitempty"`
}

type openSpan struct {
	name  string
	id    string
	start int64
	child int64 // ns covered by children
	index int32 // written index, -1 if past keepSpans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]int64{}, dur: map[string]int64{}, count: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a nested span; pair it with end. Nesting is per tracer,
// so only one goroutine may use begin/end on a tracer.
func (t *tracer) begin(name, id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].index
	}
	s := openSpan{name: name, id: id, start: t.now(), index: -1}
	if len(t.spans) < keepSpans {
		s.index = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{Name: name, Start: s.start, Parent: parent, ID: id})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, s)
}

// rename changes the name of the innermost open span, for a call whose
// layer is known only once it returns (a cache lookup that computed).
func (t *tracer) rename(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.stack[len(t.stack)-1]
	s.name = name
	if s.index >= 0 {
		t.spans[s.index].Name = name
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := end - s.start
	t.self[s.name] += d - s.child
	t.dur[s.name] += d
	t.count[s.name]++
	if s.index >= 0 {
		t.spans[s.index].End = end
	}
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// leaf records a span without children that ran on any goroutine, such
// as a tree load inside a batch worker.
func (t *tracer) leaf(name, id string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, e := int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.self[name] += e - s
	t.dur[name] += e - s
	t.count[name]++
	if len(t.spans) < keepSpans {
		t.spans = append(t.spans, spanRec{Name: name, Start: s, End: e, Parent: -1, ID: id})
	} else {
		t.dropped++
	}
}

// selfSeconds sums the self time of spans with the given name.
func (t *tracer) selfSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.self[name]) / 1e9
}

func (t *tracer) calls(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[name]
}

// coverage is the share of the root span's wall time that layer spans
// cover: one minus the root's own self time over its duration.
func (t *tracer) coverage(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dur[root] == 0 {
		return 0
	}
	return 1 - float64(t.self[root])/float64(t.dur[root])
}

// write appends the kept spans as NDJSON, one object per span, after a
// header line naming the run.
func (t *tracer) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	header["dropped_spans"] = t.dropped
	totals := map[string]any{}
	for n := range t.self {
		totals[n] = map[string]int64{"calls": t.count[n], "self_ns": t.self[n], "dur_ns": t.dur[n]}
	}
	header["totals"] = totals
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
