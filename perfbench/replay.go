package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"elmore/internal/batch"
	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/signal"
)

// replay runs the jobs of one NDJSON spec stream, in pipeline order,
// through each layer's public function with a span around every call:
// decode, tree load (parse), compile, fingerprint, the moment cache,
// the PRH sweeps, the bounds, the generalized-input window and the
// result encoding. The pipeline has no seam for these layers, so the
// replay is where their costs are measured. Cache lookups that had to
// compute are attributed to the moments layer, hits to the batch layer.
func replay(ctx context.Context, tr *tracer, stream []byte, id string) error {
	tr.begin("bench.replay", id)
	defer tr.end()
	tr.begin("batch.decode", id)
	specs, err := batch.ReadSpecs(bytes.NewReader(stream))
	tr.end()
	if err != nil {
		return err
	}
	cache := batch.NewCache()
	for _, s := range specs {
		if err := replayJob(ctx, tr, cache, s); err != nil {
			return fmt.Errorf("job %s: %w", s.ID, err)
		}
	}
	return nil
}

func replayJob(ctx context.Context, tr *tracer, cache *batch.Cache, s batch.JobSpec) error {
	tr.begin("netlist.parse", s.ID)
	tree, err := batch.DefaultTreeLoader(s.Net, s.Netlist)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("rctree.compile", s.ID)
	rctree.Compile(tree)
	tr.end()
	tr.begin("rctree.fingerprint", s.ID)
	tree.Fingerprint()
	tr.end()
	tr.begin("batch.cache", s.ID)
	ms, hit, err := cache.Moments(tree, 3)
	if !hit {
		tr.rename("moments.compute")
	}
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("moments.prh", s.ID)
	moments.ComputePRH(tree)
	tr.end()
	tr.begin("core.analyze", s.ID)
	a, err := core.AnalyzeWithMoments(ctx, tree, ms)
	tr.end()
	if err != nil {
		return err
	}
	input, err := batch.ParseRise(s.Rise)
	if err != nil {
		return err
	}
	_, step := input.(signal.Step)
	res := batch.Result{ID: s.ID, Net: &batch.NetResult{Analysis: a}}
	sinks := s.Sinks
	if len(sinks) == 0 {
		sinks = tree.Names()
	}
	for _, name := range sinks {
		i, ok := tree.Index(name)
		if !ok {
			return fmt.Errorf("no node %q", name)
		}
		sb := batch.SinkBounds{Node: name, Bounds: a.Bounds[i]}
		if !step {
			tr.begin("core.for_input", s.ID)
			ib, err := a.ForInput(i, input)
			tr.end()
			if err != nil {
				return err
			}
			sb.Input = &ib
		}
		res.Net.Sinks = append(res.Net.Sinks, sb)
	}
	tr.begin("batch.encode", s.ID)
	err = batch.WriteResult(io.Discard, res)
	tr.end()
	return err
}

// replayLayers fills the per-layer metrics the replay measures.
// core.bounds_s is the AnalyzeWithMoments time minus the PRH sweeps it
// runs inside, which the replay times separately on the same trees.
func replayLayers(L map[string]float64, rep *tracer) {
	L["rctree.compile_s"] = rep.selfSeconds("rctree.compile")
	L["rctree.fingerprint_s"] = rep.selfSeconds("rctree.fingerprint")
	L["rctree.fingerprint_calls"] = float64(rep.calls("rctree.fingerprint"))
	L["moments.compute_s"] = rep.selfSeconds("moments.compute")
	L["moments.prh_s"] = rep.selfSeconds("moments.prh")
	bounds := rep.selfSeconds("core.analyze") - L["moments.prh_s"]
	if bounds < 0 {
		bounds = 0
	}
	L["core.bounds_s"] = bounds
	L["core.for_input_s"] = rep.selfSeconds("core.for_input")
	if _, ok := L["batch.decode_s"]; !ok {
		L["batch.decode_s"] = rep.selfSeconds("batch.decode")
	}
	L["batch.encode_s"] = rep.selfSeconds("batch.encode")
	L["trace.coverage"] = rep.coverage("bench.replay")
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
