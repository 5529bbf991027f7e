package batch

// The reflection-based encoder the NDJSON writer must match byte for
// byte: Record builds the documented ResultRecord of a Result, and
// marshalLine writes it through encoding/json exactly as result lines
// were written before the hand-written writer.

import (
	"encoding/json"
	"fmt"

	"elmore/internal/sta"
)

// marshalLine is the reference result line: json.Marshal(Record(r))
// plus a newline, or for a result JSON cannot encode the error record
// of the job's index, id and elapsed time.
func marshalLine(r Result) []byte {
	rec := Record(r)
	b, err := json.Marshal(rec)
	if err != nil {
		b, err = json.Marshal(ResultRecord{Index: rec.Index, ID: rec.ID, ElapsedNS: rec.ElapsedNS,
			Error: fmt.Sprintf("batch: encode result: %v", err)})
		if err != nil {
			panic(err)
		}
	}
	return append(b, '\n')
}

// Record converts an engine Result into its NDJSON form.
func Record(r Result) ResultRecord {
	rec := ResultRecord{
		Index:        r.Index,
		ID:           r.ID,
		CacheHit:     r.CacheHit,
		ElapsedNS:    r.Elapsed.Nanoseconds(),
		Attempts:     r.Attempts,
		Degraded:     r.Degraded,
		DegradedFrom: r.DegradedFrom,
		TraceID:      r.Trace.TraceID(),
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		return rec
	}
	if r.Net != nil {
		for _, s := range r.Net.Sinks {
			rec.Sinks = append(rec.Sinks, sinkRecord(s))
		}
	}
	if r.Path != nil {
		p := &PathRecord{ArrivalUB: r.Path.ArrivalUB, ArrivalLB: r.Path.ArrivalLB}
		for _, st := range r.Path.Stages {
			p.Stages = append(p.Stages, stageRecord(st))
		}
		rec.Path = p
	}
	if r.Tran != nil {
		tr := &TranRecord{Runs: make([]TranRunRecord, 0, len(r.Tran.Runs))}
		for _, run := range r.Tran.Runs {
			rr := TranRunRecord{Input: run.Input, Crossings: make([]TranCrossRecord, 0, len(run.Crossings))}
			for _, c := range run.Crossings {
				rr.Crossings = append(rr.Crossings, TranCrossRecord{Node: c.Node, Level: c.Level, T: c.T, Reached: c.Reached})
			}
			tr.Runs = append(tr.Runs, rr)
		}
		rec.Tran = tr
	}
	return rec
}

func sinkRecord(s SinkBounds) SinkRecord {
	out := SinkRecord{
		Node:     s.Node,
		Elmore:   s.Bounds.Elmore,
		Lower:    s.Bounds.Lower,
		PRHTmin:  s.Bounds.PRHTmin,
		PRHTmax:  s.Bounds.PRHTmax,
		Sigma:    s.Bounds.Sigma,
		Skewness: s.Bounds.Skewness,
		RiseTime: s.Bounds.RiseTime,
	}
	if s.Input != nil {
		out.Input = &InputRecord{
			Upper:       s.Input.Upper,
			Lower:       s.Input.Lower,
			OutputSigma: s.Input.OutputSigma,
			OutputSkew:  s.Input.OutputSkew,
		}
	}
	return out
}

func stageRecord(st sta.StageResult) StageRecord {
	return StageRecord{
		Cell:       st.Cell,
		Sink:       st.Sink,
		Ceff:       st.Ceff,
		GateDelay:  st.GateDelay,
		OutputSlew: st.OutputSlew,
		NetElmore:  st.NetElmore,
		NetLower:   st.NetLower,
		SinkSlew:   st.SinkSlew,
		ArrivalUB:  st.ArrivalUB,
		ArrivalLB:  st.ArrivalLB,
	}
}
