package batch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"elmore/internal/core"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
)

// FuzzReadSpecs asserts the NDJSON job-spec parser never panics, that
// every line the hand-written scanner accepts decodes to the same spec
// under encoding/json, that every accepted spec materializes into a
// well-formed Job (one kind or a pre-failed error, never both, never
// neither), and that accepted specs survive a marshal/re-parse round
// trip. Run the seeds as part of the normal suite; `go test
// -fuzz=FuzzReadSpecs` explores further.
func FuzzReadSpecs(f *testing.F) {
	seeds := []string{
		"",
		"# just a comment\n\n",
		`{"id":"n1","net":"nets/a.sp","sinks":["z"],"rise":"1n"}`,
		`{"id":"p1","slew":"30p","stages":[{"cell":"inv","net":"a.sp","sink":"z"}]}`,
		`{"id":"t1","net":"a.sp","dt":"1p","t_end":"5n","method":"be","levels":[0.1,0.5,0.9]}`,
		`{"id":"t2","net":"a.sp","dt":"0"}`,
		`{"id":"bad","net":"a.sp","dt":"-1p"}`,
		`{"id":"both","net":"a.sp","stages":[{"cell":"x","net":"y","sink":"z"}]}`,
		`{"id":"mix","net":"a.sp","dt":"1p","rise":"-3n"}`,
		`{"id":"orphan","levels":[0.5]}`,
		`{"id":"nokind"}`,
		`{"id":"dup"}` + "\n" + `{"id":"dup"}`,
		`{broken`,
		`{"unknown_field":1}`,
		`[1,2,3]`,
		`null`,
		"{\"id\":\"\x00\",\"net\":\"\\n\"}",
		`{"id":"m","net":"a.sp","method":"simpson","dt":"1p"}`,
		strings.Repeat("#", 70000) + "\n" + `{"id":"after-long-comment","net":"a.sp"}`,
		`{"id":"c1/100p","net":"nets/c1.sp","sinks":["n3","n7","n12"],"rise":"100p"}`,
		`{"id":"p7","netlist":"Vin in 0 1\nR1 in n1 100\nC1 n1 0 1p\n.end\n","sinks":["n1"],"rise":"step"}`,
		` { "id" : "ws" ,	"net":"a.sp" , "sinks" : [ ] }` + "\r",
		`{"id":"esc \" \\ \/ \b \f \n \r \t","net":"a.sp","trace_id":"0123456789abcdef0123456789abcdef"}`,
		`{"id":"u\u0041","net":"a.sp"}`,
		`{"id":"dupkey","id":"again","net":"a.sp"}`,
		`{"ID":"case","Net":"a.sp"}`,
		`{"id":null,"net":"a.sp"}`,
		`{"id":"a","net":"a.sp","sinks":null}`,
		`{"id":"a","net":"a.sp","sinks":["x",1]}`,
		"{\"id\":\"bad\xff\",\"net\":\"a.sp\"}",
		"{\"id\":\"ctl\x01\",\"net\":\"a.sp\"}",
		`{"id":"ünï ✓","net":"a.sp"}`,
		`{"id":"a","net":"x.sp"} {"id":"b","net":"y.sp"}`,
		`{"id":"a","net":"x.sp"} garbage`,
		`{"id":"a","net":"x.sp",}`,
		`{"id":"a" "net":"x.sp"}`,
		`{}`,
		`null x`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		if got, ok := scanSpec(stream); ok {
			want, err := decodeSpec(stream)
			if err != nil {
				t.Fatalf("scanSpec accepts %q, encoding/json rejects it: %v", stream, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanSpec(%q) = %#v, encoding/json gives %#v", stream, got, want)
			}
		}
		specs, err := ReadSpecs(strings.NewReader(stream))
		if err != nil {
			return // rejected streams just need a graceful error
		}
		for i, s := range specs {
			j := s.JobLoader(nil, 25e-12, nil)
			kinds := 0
			if j.Net != nil {
				kinds++
			}
			if j.Path != nil {
				kinds++
			}
			if j.Tran != nil {
				kinds++
			}
			if j.Err != nil {
				if kinds != 0 {
					t.Fatalf("spec %d: pre-failed job carries %d payloads", i, kinds)
				}
			} else if kinds != 1 {
				t.Fatalf("spec %d: job has %d kinds, want exactly 1: %+v", i, kinds, s)
			}
			// Accepted specs must round-trip through their own encoding.
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("spec %d does not re-marshal: %v", i, err)
			}
			again, err := ReadSpecs(strings.NewReader(string(b)))
			if err != nil {
				t.Fatalf("spec %d does not re-parse: %v\n%s", i, err, b)
			}
			if len(again) != 1 {
				t.Fatalf("spec %d re-parsed into %d specs", i, len(again))
			}
		}
	})
}

// FuzzWriteResult is the writer's differential test: WriteResult must
// write exactly the reference line of marshalLine, error records
// included. kind picks the record kind and its optional fields, id and
// text fill the string fields, and data fills the float fields eight
// bytes at a time, x once data runs out.
func FuzzWriteResult(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1.5e-9, 1e-7, 0.1, 123456789.125, 3e20,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
	}
	for k, x := range floats {
		for _, v := range []float64{x, -x} {
			f.Add(uint8(k), "z", "n1", v, []byte(nil))
		}
	}
	strs := []string{"", "<>&", "a\u2028b\u2029c", "\x00\x01\x1f\b\f\n\r\t\"\\\x7f", "\xff\xfe bad \xc3", "ünï ✓ \ufffd"}
	for k, s := range strs {
		f.Add(uint8(k), s, s, 1e-12, []byte(nil))
	}
	f.Add(uint8(0), "empty-error", "", 0.0, []byte(nil)) // an error record with no error text
	f.Add(uint8(6), "no-stages", "inv", 2e-11, []byte(nil))
	f.Add(uint8(6), "empty-stage", "inv", 2e-11, []byte(nil))
	f.Add(uint8(7), "no-runs", "", 0.5, []byte(nil))
	f.Add(uint8(3), "t", "n", 1.0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Fuzz(func(t *testing.T, kind uint8, id, text string, x float64, data []byte) {
		r := fuzzResult(kind, id, text, x, data)
		var got bytes.Buffer
		if err := WriteResult(&got, r); err != nil {
			t.Fatal(err)
		}
		if want := marshalLine(r); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteResult wrote\n%s\nencoding/json writes\n%s", got.Bytes(), want)
		}
	})
}

// fuzzResult builds the FuzzWriteResult record: kind%4 picks an error,
// net, path or transient result, bit 2 an alternative shape (empty
// error text, ramp inputs, nil or empty stages, no runs), and bits 3-5
// the cache hit and degradation fields, the trace and the attempt
// count.
func fuzzResult(kind uint8, id, text string, x float64, data []byte) Result {
	num := func() float64 {
		if len(data) < 8 {
			return x
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	alt := kind&4 != 0
	r := Result{Index: len(text) - len(id), ID: id, Elapsed: time.Duration(len(data)) * 1234567}
	if kind&8 != 0 {
		r.CacheHit, r.Degraded, r.DegradedFrom = true, text, id
	}
	if kind&16 != 0 {
		r.Trace = telemetry.TraceContext{Hi: uint64(len(id)) << 60, Lo: uint64(len(text)) + 1}
	}
	if kind&32 != 0 {
		r.Attempts = int(kind>>6) - 1
	}
	switch kind % 4 {
	case 0:
		if alt {
			text = ""
		}
		r.Err = errors.New(text)
	case 1:
		r.Net = &NetResult{}
		for _, node := range []string{id, text} {
			sb := SinkBounds{Node: node, Bounds: core.Bounds{Elmore: num(), Lower: num(), PRHTmin: num(),
				PRHTmax: num(), Sigma: num(), Skewness: num(), RiseTime: num()}}
			if alt {
				sb.Input = &core.InputBounds{Upper: num(), Lower: num(), OutputSigma: num(), OutputSkew: num()}
			}
			r.Net.Sinks = append(r.Net.Sinks, sb)
		}
	case 2:
		r.Path = &sta.PathResult{ArrivalUB: num(), ArrivalLB: num()}
		if alt && len(id)%2 == 1 {
			r.Path.Stages = []sta.StageResult{}
		} else if !alt {
			for _, cell := range []string{id, text} {
				r.Path.Stages = append(r.Path.Stages, sta.StageResult{Cell: cell, Sink: text, Ceff: num(),
					GateDelay: num(), OutputSlew: num(), NetElmore: num(), NetLower: num(), SinkSlew: num(),
					ArrivalUB: num(), ArrivalLB: num()})
			}
		}
	case 3:
		r.Tran = &TranResult{}
		if !alt {
			r.Tran.Runs = []TranRun{
				{Input: 0, Crossings: []TranCross{{Node: id, Level: num(), T: num(), Reached: true}, {Node: text, Level: num(), T: num()}}},
				{Input: 1},
			}
		}
	}
	return r
}
