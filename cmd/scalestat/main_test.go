package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseWorkers(t *testing.T) {
	got, err := parseWorkers("1, 2,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 8}) {
		t.Fatalf("parseWorkers = %v, %v", got, err)
	}
	if _, err := parseWorkers("1,zero"); err == nil {
		t.Fatal("bad count must error")
	}
	if _, err := parseWorkers("0"); err == nil {
		t.Fatal("zero workers must error")
	}
	def, err := parseWorkers("")
	if err != nil || len(def) == 0 {
		t.Fatalf("default sweep: %v, %v", def, err)
	}
	if def[0] != 1 || def[len(def)-1] != runtime.GOMAXPROCS(0) {
		t.Fatalf("default sweep %v must go 1..GOMAXPROCS", def)
	}
}

func TestScalestatReportAndLedger(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")

	err := run([]string{
		"-nets", "120", "-nodes", "10", "-workers", "1,2",
		"-share", "12",
		"-o", repPath,
		"-check",
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not parseable: %v", err)
	}
	if rep.Report != "scaling" || rep.Nets != 120 || rep.Distinct != 12 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Steps) != 2 || rep.Steps[0].Workers != 1 || rep.Steps[1].Workers != 2 {
		t.Fatalf("steps wrong: %+v", rep.Steps)
	}
	for _, st := range rep.Steps {
		if len(st.WorkerTable) != st.Workers {
			t.Errorf("workers=%d: worker table has %d rows", st.Workers, len(st.WorkerTable))
		}
		if st.Attribution.Accounted < 0.95 {
			t.Errorf("workers=%d: accounted %.3f < 0.95", st.Workers, st.Attribution.Accounted)
		}
		l := st.Latency
		if !(0 < l.Max && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
			t.Errorf("workers=%d: latency quantiles missing or unordered: %+v", st.Workers, l)
		}
		var jobs int64
		for _, row := range st.WorkerTable {
			jobs += row.Jobs
		}
		if jobs != int64(rep.Nets) {
			t.Errorf("workers=%d: table jobs sum %d != %d", st.Workers, jobs, rep.Nets)
		}
	}
	// 12 distinct trees over 120 jobs, but the jobs carry pre-built
	// trees, which share no moments: every job computes its own set.
	var hits int64
	for _, row := range rep.Steps[0].WorkerTable {
		hits += row.CacheHits
	}
	if hits != 0 {
		t.Errorf("cache hits = %d, want 0 (pre-built trees share no moments)", hits)
	}
	if rep.Steps[0].Speedup != 1 {
		t.Errorf("first step speedup = %v, want 1 (it is the baseline)", rep.Steps[0].Speedup)
	}

}

func TestScalestatRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nets", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-nets 0 must error")
	}
	if err := run([]string{"-workers", "1,-2"}, io.Discard, io.Discard); err == nil {
		t.Fatal("negative worker count must error")
	}
	if err := run([]string{"extra-arg"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "usage") {
		t.Fatalf("positional args must error with usage, got %v", err)
	}
}
