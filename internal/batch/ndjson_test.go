package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"elmore/internal/core"
	"elmore/internal/health"
	"elmore/internal/telemetry"
)

func TestRunSpecsStreamsNDJSON(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	stream := strings.Join([]string{
		fmt.Sprintf(`{"id":"n1","net":%q,"sinks":["z"],"rise":"1n"}`, netPath),
		fmt.Sprintf(`{"id":"p1","stages":[{"cell":"inv","net":%q,"sink":"z"}]}`, netPath),
		`{"id":"bad","net":"does-not-exist.sp"}`,
	}, "\n")
	var out bytes.Buffer
	eng := &Engine{Workers: 4, Cache: NewCache()}
	st, err := RunSpecsOpts(context.Background(), eng, strings.NewReader(stream), &out,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Failed != 1 {
		t.Fatalf("failed=%d total=%d, want 1/3", st.Failed, st.Total)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d output lines, want 3:\n%s", len(lines), out.String())
	}
	var recs []ResultRecord
	for i, line := range lines {
		var rec ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.Index != i {
			t.Errorf("line %d has index %d: output must stream in job order", i, rec.Index)
		}
		recs = append(recs, rec)
	}
	n1 := recs[0]
	if n1.ID != "n1" || n1.Error != "" || len(n1.Sinks) != 1 {
		t.Fatalf("n1 record: %+v", n1)
	}
	s := n1.Sinks[0]
	if s.Node != "z" || s.Elmore <= 0 || s.Lower < 0 || s.Input == nil || s.Input.Upper < s.Elmore {
		t.Errorf("n1 sink record: %+v", s)
	}
	p1 := recs[1]
	if p1.ID != "p1" || p1.Path == nil || len(p1.Path.Stages) != 1 || p1.Path.ArrivalUB <= 0 {
		t.Errorf("p1 record: %+v", p1)
	}
	if st := p1.Path.Stages[0]; st.Cell != "inv" || st.Sink != "z" || st.NetElmore <= 0 {
		t.Errorf("p1 stage record: %+v", p1.Path.Stages[0])
	}
	bad := recs[2]
	if bad.ID != "bad" || bad.Error == "" || bad.Sinks != nil || bad.Path != nil {
		t.Errorf("bad record should carry only an error: %+v", bad)
	}
}

func TestRunSpecsRejectsBadStream(t *testing.T) {
	eng := &Engine{}
	var out bytes.Buffer
	_, err := RunSpecsOpts(context.Background(), eng, strings.NewReader("{oops\n"), &out, SpecRunOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("want a line-numbered error, got %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("no results should be emitted for an unreadable stream")
	}
}

func TestWriteResultDegradesOnUnencodableValues(t *testing.T) {
	// NaN must not escape the bound engines, but if it ever does the
	// stream degrades to an error record instead of dying.
	var out bytes.Buffer
	r := Result{Index: 4, ID: "nan", Elapsed: time.Millisecond,
		Net: &NetResult{Sinks: []SinkBounds{{Node: "z"}}}}
	r.Net.Sinks[0].Bounds.Elmore = math.NaN()
	if err := WriteResult(&out, r); err != nil {
		t.Fatal(err)
	}
	var rec ResultRecord
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Index != 4 || rec.ID != "nan" || !strings.Contains(rec.Error, "encode") {
		t.Errorf("degraded record: %+v", rec)
	}
}

// infDeck's RC product overflows, so T_D = +Inf, which JSON cannot
// encode.
const infDeck = "Vin in 0 1\nR1 in z 1e200\nC1 z 0 1e200\n"

// A result the writer degrades to an error record is a failed job: it
// counts in RunStats.Failed, which fails the CLI run and feeds
// elmored's serve_summary. Under a strict health monitor the same deck
// fails at the moment sweep instead, and counts the same way.
func TestRunSpecsCountsUnencodableAsFailed(t *testing.T) {
	spec, err := json.Marshal(JobSpec{ID: "inf", Netlist: infDeck})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		monitor *health.Monitor
		wantErr func(string) bool
	}{
		{"no monitor", nil, func(e string) bool { return e == "batch: encode result: json: unsupported value: +Inf" }},
		{"strict monitor", health.New(io.Discard, true), func(e string) bool { return strings.HasPrefix(e, "health: moments.nonfinite ") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := health.SetDefault(tc.monitor)
			t.Cleanup(func() { health.SetDefault(prev) })
			var out bytes.Buffer
			st, err := RunSpecsOpts(context.Background(), &Engine{Workers: 1}, bytes.NewReader(spec), &out, SpecRunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Emitted != 1 || st.Failed != 1 {
				t.Errorf("emitted=%d failed=%d, want 1/1", st.Emitted, st.Failed)
			}
			var rec ResultRecord
			if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.ID != "inf" || !tc.wantErr(rec.Error) || rec.Sinks != nil {
				t.Errorf("record: %+v", rec)
			}
		})
	}
}

// TestRunSpecsReportCountsUnencodable: the run summary counts a result
// the writer degrades to an error record like any failed job: in
// errors, in errors_by_kind.failed and as a bad SLO event, next to a
// healthy job that stays good.
func TestRunSpecsReportCountsUnencodable(t *testing.T) {
	var in bytes.Buffer
	for _, s := range []JobSpec{{ID: "inf", Netlist: infDeck}, {ID: "ok", Netlist: "Vin in 0 1\nR1 in z 100\nC1 z 0 1p\n"}} {
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(line, '\n'))
	}
	var sum bytes.Buffer
	rep := &Reporter{Summary: &sum, SLOs: []telemetry.SLO{{Name: "p99", Quantile: 0.99, Target: time.Hour}}}
	st, err := RunSpecsOpts(context.Background(), &Engine{Workers: 1, Report: rep}, &in, io.Discard, SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Emitted != 2 || st.Failed != 1 {
		t.Errorf("emitted=%d failed=%d, want 2/1", st.Emitted, st.Failed)
	}
	var rec summaryRecord
	if err := json.Unmarshal(sum.Bytes(), &rec); err != nil {
		t.Fatalf("summary %q: %v", sum.String(), err)
	}
	if rec.Errors != 1 || rec.ErrorsByKind["failed"] != 1 || len(rec.ErrorsByKind) != 1 {
		t.Errorf("errors=%d errors_by_kind=%v, want 1 and {failed:1}", rec.Errors, rec.ErrorsByKind)
	}
	if len(rec.SLO) != 1 || rec.SLO[0].Good != 1 || rec.SLO[0].Bad != 1 {
		t.Errorf("slo %+v, want one good and one bad event", rec.SLO)
	}
}

// TestWriteResultAllocs: a 16-sink ramp record, the batch-corners
// shape, costs no allocation once the line buffer has grown.
func TestWriteResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the line buffer pool drops buffers under -race")
	}
	r := Result{Index: 12345, ID: "net123/100p", Elapsed: 38 * time.Microsecond, CacheHit: true, Attempts: 1,
		Trace: telemetry.TraceContext{Hi: 0x0123456789abcdef, Lo: 42}, Net: &NetResult{}}
	for k := 0; k < 16; k++ {
		x := float64(k+1) * 1.234567e-11
		r.Net.Sinks = append(r.Net.Sinks, SinkBounds{Node: fmt.Sprintf("n%d", k),
			Bounds: core.Bounds{Elmore: x, Lower: x / 3, PRHTmin: x / 2, PRHTmax: 2 * x, Sigma: x / 1.7, Skewness: 1.25, RiseTime: 2.2 * x},
			Input:  &core.InputBounds{Upper: x, Lower: x / 4, OutputSigma: 0.9 * x, OutputSkew: 0.8}})
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteResult(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteResult = %v allocs per 16-sink ramp record, want 0", allocs)
	}
}
