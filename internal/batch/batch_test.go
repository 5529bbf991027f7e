package batch

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"elmore/internal/core"
	"elmore/internal/gate"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// chainNet builds a small deterministic chain for job payloads.
func chainNet(t testing.TB, n int) *rctree.Tree {
	t.Helper()
	return topo.Chain(n, 100, 1e-13)
}

func netJob(id string, tree *rctree.Tree, sinks ...string) Job {
	return Job{ID: id, Net: &NetJob{Tree: tree, Sinks: sinks}}
}

func TestRunDeterministicOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), topo.Random(int64(i), topo.RandomOptions{N: 1 + i%9})))
	}
	e := &Engine{Workers: 8}
	var emitted []string
	e.RunFunc(context.Background(), jobs, func(r Result) {
		emitted = append(emitted, r.ID)
	})
	if len(emitted) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(emitted), len(jobs))
	}
	for i, id := range emitted {
		if id != jobs[i].ID {
			t.Fatalf("result %d is %q, want %q (order not deterministic)", i, id, jobs[i].ID)
		}
	}
	// Run returns the same thing as a slice.
	results := e.Run(context.Background(), jobs)
	for i, r := range results {
		if r.Index != i || r.ID != jobs[i].ID || r.Err != nil || r.Net == nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
}

func TestResultsMatchSequentialAnalysis(t *testing.T) {
	tree := chainNet(t, 12)
	last := tree.Name(tree.N() - 1)
	jobs := []Job{
		netJob("all", tree),
		netJob("one", tree, last),
		{ID: "ramp", Net: &NetJob{Tree: tree, Sinks: []string{last}, Input: signal.SaturatedRamp{Tr: 1e-9}}},
	}
	res := (&Engine{Workers: 4, Trees: heldTrees(t, tree)}).Run(context.Background(), jobs)
	want, err := core.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || len(res[0].Net.Sinks) != tree.N() {
		t.Fatalf("all-sinks job: %+v", res[0])
	}
	if got := res[1].Net.Sinks; len(got) != 1 || got[0].Bounds != want.Bounds[tree.N()-1] {
		t.Errorf("single-sink bounds differ from core.Analyze: %+v", got)
	}
	sink := res[2].Net.Sinks[0]
	if sink.Input == nil {
		t.Fatalf("ramp job missing generalized-input bounds")
	}
	wantIn, err := want.ForInput(tree.N()-1, signal.SaturatedRamp{Tr: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if *sink.Input != wantIn {
		t.Errorf("input bounds = %+v, want %+v", *sink.Input, wantIn)
	}
}

func TestFailSoftErrorPolicy(t *testing.T) {
	good := chainNet(t, 5)
	jobs := []Job{
		netJob("ok1", good),
		{ID: "badload", Net: &NetJob{Load: func() (*rctree.Tree, error) {
			return nil, fmt.Errorf("synthetic parse failure")
		}}},
		{ID: "badsink", Net: &NetJob{Tree: good, Sinks: []string{"nope"}}},
		{ID: "empty"},
		{ID: "prefailed", Err: fmt.Errorf("bad spec line")},
		netJob("ok2", good),
	}
	res := (&Engine{Workers: 3}).Run(context.Background(), jobs)
	if res[0].Err != nil || res[5].Err != nil {
		t.Errorf("good jobs failed: %v %v", res[0].Err, res[5].Err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if res[i].Err == nil {
			t.Errorf("job %q should have failed", res[i].ID)
		}
		if res[i].Net != nil || res[i].Path != nil {
			t.Errorf("failed job %q carries a payload", res[i].ID)
		}
	}
	if !strings.Contains(res[1].Err.Error(), "synthetic parse failure") {
		t.Errorf("load error lost: %v", res[1].Err)
	}
	if !strings.Contains(res[4].Err.Error(), "bad spec line") {
		t.Errorf("pre-failed error lost: %v", res[4].Err)
	}
}

func TestWorkerPanicIsolation(t *testing.T) {
	good := chainNet(t, 4)
	jobs := []Job{
		netJob("before", good),
		{ID: "boom", Net: &NetJob{Load: func() (*rctree.Tree, error) { panic("kaboom") }}},
		netJob("after", good),
	}
	res := (&Engine{Workers: 2}).Run(context.Background(), jobs)
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panicked") || !strings.Contains(res[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted to a per-job error: %v", res[1].Err)
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Errorf("panic leaked into sibling jobs: %v %v", res[0].Err, res[2].Err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	good := chainNet(t, 4)
	slow := Job{ID: "slow", Net: &NetJob{Load: func() (*rctree.Tree, error) {
		time.Sleep(50 * time.Millisecond)
		return chainNet(t, 4), nil
	}}}
	res := (&Engine{Workers: 2, Timeout: 5 * time.Millisecond}).Run(
		context.Background(), []Job{netJob("fast", good), slow})
	if res[0].Err != nil {
		t.Errorf("fast job hit the timeout: %v", res[0].Err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "deadline") {
		t.Errorf("slow job should report its deadline: %v", res[1].Err)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tree := chainNet(t, 6)
	release := make(chan struct{})
	var jobs []Job
	jobs = append(jobs, Job{ID: "gate", Net: &NetJob{Load: func() (*rctree.Tree, error) {
		<-release
		return tree, nil
	}}})
	for i := 0; i < 30; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), tree))
	}
	go func() {
		cancel()
		close(release)
	}()
	res := (&Engine{Workers: 1}).Run(ctx, jobs)
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	canceled := 0
	for _, r := range res {
		if r.Err != nil && strings.Contains(r.Err.Error(), "canceled") {
			canceled++
		}
	}
	if canceled == 0 {
		t.Errorf("cancellation produced no canceled job records")
	}
}

// Jobs on a deck the engine's tree cache holds share the entry's moment
// set; a clone of that tree, which the cache does not hold, computes
// its own, as does every job on a tree of another deck.
func TestCacheReusesMomentSets(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	tree := chainNet(t, 10)
	clone := tree.Clone()
	other := chainNet(t, 11)
	jobs := []Job{netJob("a", tree), netJob("b", clone), netJob("c", other), netJob("d", tree), netJob("e", other)}
	res := (&Engine{Workers: 1, Trees: heldTrees(t, tree, other)}).Run(context.Background(), jobs)
	var hits []bool
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		hits = append(hits, r.CacheHit)
	}
	if want := []bool{false, false, false, true, true}; !slices.Equal(hits, want) {
		t.Errorf("cache hits %v, want %v", hits, want)
	}
	if n := reg.Counter("moments.computes").Value(); n != 3 {
		t.Errorf("%d moment computes, want 3 (two entries and the clone)", n)
	}
	// Cached and fresh analyses agree exactly.
	want, err := core.Analyze(other)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Bounds {
		if res[4].Net.Sinks[i].Bounds != want.Bounds[i] {
			t.Errorf("cached-path analysis differs at node %d", i)
		}
	}
}

func TestCacheMomentsDirect(t *testing.T) {
	tree := chainNet(t, 8)
	cache := NewCache()
	ms1, hit1, err := cache.Moments(tree, 2)
	if err != nil || hit1 {
		t.Fatalf("first lookup: hit=%v err=%v", hit1, err)
	}
	ms2, hit2, err := cache.Moments(tree.Clone(), 3)
	if err != nil || !hit2 {
		t.Fatalf("second lookup: hit=%v err=%v", hit2, err)
	}
	if ms1 != ms2 {
		t.Errorf("order-2 and order-3 lookups must share one set")
	}
	// One set serves orders 1 to 3; any other order is an error and
	// leaves the cache alone.
	for _, order := range []int{0, 4} {
		if ms, _, err := cache.Moments(tree, order); err == nil || ms != nil {
			t.Errorf("order-%d lookup: set %v, err %v; want an error", order, ms, err)
		}
	}
	if len(cache.m) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(cache.m))
	}
	want, err := moments.Compute(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if ms1.Elmore(i) != want.Elmore(i) {
			t.Errorf("cached Elmore differs at %d", i)
		}
	}
}

// The zero Cache is ready to use.
func TestCacheZeroValueUsable(t *testing.T) {
	var c Cache
	tree := chainNet(t, 8)
	ms, hit, err := c.Moments(tree, 3)
	if err != nil || ms == nil || hit {
		t.Fatalf("zero-value Moments: set=%v hit=%v err=%v, want a computed miss", ms, hit, err)
	}
	if again, hit, err := c.Moments(tree, 3); err != nil || again != ms || !hit {
		t.Errorf("second lookup: hit=%v err=%v, want the cached set", hit, err)
	}
}

func testCell(t testing.TB) *gate.Cell {
	t.Helper()
	cell, err := gate.LinearCell("inv", 300, 2e-12, 0.05, 4e-12,
		[]float64{1e-12, 50e-12, 500e-12, 5e-9},
		[]float64{1e-15, 50e-15, 500e-15, 5e-12})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestPathJobsMatchDirectSTA(t *testing.T) {
	cell := testCell(t)
	net := chainNet(t, 6)
	sink := net.Name(net.N() - 1)
	path := sta.Path{
		InputSlew: 20e-12,
		Stages: []sta.Stage{
			{Cell: cell, Net: net, Sink: sink},
			{Cell: cell, Net: net, Sink: sink},
		},
	}
	jobs := []Job{
		{ID: "p1", Path: &PathJob{Path: &path}},
		{ID: "p2", Path: &PathJob{Load: func() (*sta.Path, error) { return &path, nil }}},
		{ID: "pbad", Path: &PathJob{Load: func() (*sta.Path, error) {
			return nil, fmt.Errorf("no such deck")
		}}},
	}
	res := (&Engine{Workers: 2, Trees: heldTrees(t, net)}).Run(context.Background(), jobs)
	want, err := sta.AnalyzePath(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		r := res[i]
		if r.Err != nil {
			t.Fatalf("path job %s: %v", r.ID, r.Err)
		}
		if r.Path.ArrivalUB != want.ArrivalUB || r.Path.ArrivalLB != want.ArrivalLB {
			t.Errorf("job %s window [%v,%v], want [%v,%v]", r.ID,
				r.Path.ArrivalLB, r.Path.ArrivalUB, want.ArrivalLB, want.ArrivalUB)
		}
	}
	if math.IsNaN(want.ArrivalUB) || want.ArrivalUB <= 0 {
		t.Errorf("suspicious direct result %v", want.ArrivalUB)
	}
	// Both stages drive the same net: the second job must hit the cache.
	if !res[1].CacheHit {
		t.Errorf("repeated net across path jobs should hit the shared cache")
	}
	if res[2].Err == nil {
		t.Errorf("bad path load must fail soft")
	}
}

const specNet = `Vin in 0 1
R1 in a 100
C1 a 0 20f
R2 a z 150
C2 z 0 30f
`

func writeSpecFiles(t *testing.T) (netPath string, lib *gate.Library) {
	t.Helper()
	dir := t.TempDir()
	netPath = filepath.Join(dir, "net.sp")
	if err := os.WriteFile(netPath, []byte(specNet), 0o644); err != nil {
		t.Fatal(err)
	}
	lib = &gate.Library{Cells: map[string]*gate.Cell{"inv": testCell(t)}}
	return netPath, lib
}

func TestReadSpecsAndMaterialize(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	stream := strings.Join([]string{
		`# a comment`,
		``,
		fmt.Sprintf(`{"id":"n1","net":%q,"sinks":["z"],"rise":"1n"}`, netPath),
		fmt.Sprintf(`{"id":"n2","net":%q}`, netPath),
		fmt.Sprintf(`{"id":"p1","slew":"30p","stages":[{"cell":"inv","net":%q,"sink":"z"}]}`, netPath),
		`{"id":"badrise","net":"x.sp","rise":"-1n"}`,
		`{"id":"badcell","stages":[{"cell":"nope","net":"x.sp","sink":"z"}]}`,
		`{"id":"nokind"}`,
		fmt.Sprintf(`{"id":"badfile","net":%q}`, filepath.Join(t.TempDir(), "missing.sp")),
	}, "\n")
	specs, err := ReadSpecs(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 7 {
		t.Fatalf("read %d specs, want 7", len(specs))
	}
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = s.JobLoader(lib, 25e-12, nil)
	}
	res := (&Engine{Workers: 4}).Run(context.Background(), jobs)
	byID := map[string]Result{}
	for _, r := range res {
		byID[r.ID] = r
	}
	if r := byID["n1"]; r.Err != nil || len(r.Net.Sinks) != 1 || r.Net.Sinks[0].Node != "z" || r.Net.Sinks[0].Input == nil {
		t.Errorf("n1: %+v err=%v", r.Net, r.Err)
	}
	if r := byID["n2"]; r.Err != nil || len(r.Net.Sinks) != 2 {
		t.Errorf("n2 should report every tree node (a, z): %+v err=%v", r.Net, r.Err)
	}
	if r := byID["p1"]; r.Err != nil || r.Path == nil || r.Path.ArrivalUB <= 0 {
		t.Errorf("p1: %+v err=%v", r.Path, r.Err)
	}
	for _, id := range []string{"badrise", "badcell", "nokind", "badfile"} {
		if byID[id].Err == nil {
			t.Errorf("%s should fail soft", id)
		}
	}
}

func TestReadSpecsRejectsMalformedLines(t *testing.T) {
	const ok = `{"id":"ok","net":"a"}` + "\n"
	for _, tc := range []struct{ stream, want string }{
		{ok + "{broken\n", "batch: jobs line 2: "},
		{`{"id":"x","unknown_field":1}`, `unknown field "unknown_field"`},
		// Only whitespace may follow the object, whether the line takes
		// the scanner or the encoding/json path: a second object is
		// not a second job.
		{ok + `{"id":"a","net":"x.sp"} {"id":"b","net":"y.sp"}`, "batch: jobs line 2: data after the JSON object"},
		{`{"id":"a","net":"x.sp"} garbage`, "batch: jobs line 1: data after the JSON object"},
		{`{"id":"a","net":"x.sp"}}`, "batch: jobs line 1: data after the JSON object"},
		{`{"id":"p","stages":[{"cell":"inv","net":"a","sink":"z"}]} []`, "batch: jobs line 1: data after the JSON object"},
		{`{"id":"u\u0041","net":"x.sp"},`, "batch: jobs line 1: data after the JSON object"},
		{`null {}`, "batch: jobs line 1: data after the JSON object"},
	} {
		if _, err := ReadSpecs(strings.NewReader(tc.stream)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.stream, err, tc.want)
		}
	}
	specs, err := ReadSpecs(strings.NewReader("{\"id\":\"a\",\"net\":\"x.sp\"} \t \r\n"))
	if err != nil || len(specs) != 1 {
		t.Errorf("trailing whitespace: %d specs, err %v", len(specs), err)
	}
}

// readSpecsAllocBudget is ReadSpecs' allocations per line on a
// batch-corners shaped stream: the line's string and its sinks slice,
// with the growth of the spec slice amortized; 2 measured, plus one of
// headroom.
const readSpecsAllocBudget = 3

func TestReadSpecsAllocs(t *testing.T) {
	const lines = 300
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, `{"id":"net%d/100p","net":"/tmp/bench/nets/net%d.sp","sinks":[`, i/3, i/3)
		for k := 0; k < 16; k++ {
			if k > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"n%d"`, 3*k+1)
		}
		sb.WriteString(`],"rise":"100p"}` + "\n")
	}
	stream := sb.String()
	perLine := testing.AllocsPerRun(10, func() {
		if specs, err := ReadSpecs(strings.NewReader(stream)); err != nil || len(specs) != lines {
			t.Fatalf("%d specs, err %v", len(specs), err)
		}
	}) / lines
	if perLine > readSpecsAllocBudget {
		t.Errorf("ReadSpecs = %.2f allocs per line, budget %d", perLine, readSpecsAllocBudget)
	}
}
