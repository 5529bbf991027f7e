package batch

import (
	"context"
	"strings"
	"testing"
	"time"

	"elmore/internal/rctree"
)

// Inline netlists: serve-mode clients ship the deck text in the spec
// instead of naming a file on a shared filesystem.

func TestJobSpecInlineNetlist(t *testing.T) {
	j := JobSpec{ID: "inline", Netlist: specNet, Sinks: []string{"z"}}.JobLoader(nil, 0, nil)
	if j.Err != nil {
		t.Fatalf("inline spec pre-failed: %v", j.Err)
	}
	res := (&Engine{Workers: 1}).Run(context.Background(), []Job{j})
	if res[0].Err != nil {
		t.Fatalf("inline net job failed: %v", res[0].Err)
	}
	if len(res[0].Net.Sinks) != 1 || res[0].Net.Sinks[0].Node != "z" {
		t.Fatalf("inline net sinks = %+v, want one record for z", res[0].Net.Sinks)
	}
}

func TestJobSpecInlineNetlistMalformed(t *testing.T) {
	j := JobSpec{ID: "bad", Netlist: "R1 in\n"}.JobLoader(nil, 0, nil)
	res := (&Engine{Workers: 1}).Run(context.Background(), []Job{j})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "inline netlist") {
		t.Fatalf("malformed inline deck should fail soft with context, got %v", res[0].Err)
	}
}

func TestJobSpecRejectsNetAndNetlist(t *testing.T) {
	j := JobSpec{ID: "both", Net: "a.sp", Netlist: specNet}.JobLoader(nil, 0, nil)
	if j.Err == nil || !strings.Contains(j.Err.Error(), "both net and netlist") {
		t.Fatalf("net+netlist should pre-fail, got %v", j.Err)
	}
	p := JobSpec{ID: "stage", Slew: "30p", Stages: []StageSpec{
		{Cell: "inv", Net: "a.sp", Netlist: specNet, Sink: "z"},
	}}
	_, lib := writeSpecFiles(t)
	if j := p.JobLoader(lib, 25e-12, nil); j.Err == nil || !strings.Contains(j.Err.Error(), "both net and netlist") {
		t.Fatalf("stage net+netlist should pre-fail, got %v", j.Err)
	}
}

func TestJobSpecInlinePathStage(t *testing.T) {
	_, lib := writeSpecFiles(t)
	j := JobSpec{ID: "p", Slew: "30p", Stages: []StageSpec{
		{Cell: "inv", Netlist: specNet, Sink: "z"},
	}}.JobLoader(lib, 25e-12, nil)
	if j.Err != nil {
		t.Fatalf("inline path spec pre-failed: %v", j.Err)
	}
	res := (&Engine{Workers: 1}).Run(context.Background(), []Job{j})
	if res[0].Err != nil || res[0].Path == nil || res[0].Path.ArrivalUB <= 0 {
		t.Fatalf("inline path job: %+v err=%v", res[0].Path, res[0].Err)
	}
}

func TestJobLoaderInjectsTreeLoader(t *testing.T) {
	tree := chainNet(t, 4)
	calls := 0
	loader := func(net, netlist string) (*rctree.Tree, error) {
		calls++
		if net != "virtual://n1" || netlist != "" {
			t.Errorf("loader saw net=%q netlist=%q", net, netlist)
		}
		return tree, nil
	}
	j := JobSpec{ID: "v", Net: "virtual://n1"}.JobLoader(nil, 0, loader)
	res := (&Engine{Workers: 1}).Run(context.Background(), []Job{j})
	if res[0].Err != nil {
		t.Fatalf("injected-loader job failed: %v", res[0].Err)
	}
	if calls != 1 {
		t.Fatalf("loader called %d times, want 1", calls)
	}
}

// Per-job timeout boundary semantics (Engine.Timeout doc): a zero or
// negative Timeout means no per-attempt limit — a slow job must run to
// completion, never hit a zero-length deadline.

func TestTimeoutZeroMeansNone(t *testing.T) {
	for _, timeout := range []time.Duration{0, -time.Second} {
		tree := chainNet(t, 4)
		slow := Job{ID: "slow", Net: &NetJob{Load: func() (*rctree.Tree, error) {
			time.Sleep(20 * time.Millisecond)
			return tree, nil
		}}}
		res := (&Engine{Workers: 1, Timeout: timeout}).Run(context.Background(), []Job{slow})
		if res[0].Err != nil {
			t.Errorf("Timeout=%v must mean no per-job limit, got %v", timeout, res[0].Err)
		}
	}
}
