package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elmore/internal/faultinject"
	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// TestHotTreeConcurrentMissParsesOnce pins the in-flight sharing of the
// hot-tree LRU: callers that miss on a source while it is being parsed
// wait for that parse instead of repeating it. With a parse that
// succeeds, every caller gets the one tree from one parse (a caller
// arriving after the parse hits the cache). With a parse that fails,
// every caller gets the error, and the failure is not cached.
func TestHotTreeConcurrentMissParsesOnce(t *testing.T) {
	want := topo.Chain(5, 10, 1e-15)
	errParse := errors.New("parse failed")
	for _, fail := range []bool{false, true} {
		var calls atomic.Int32
		release := make(chan struct{})
		c := NewTreeCache(4, "batch.hot_tree")
		c.parse = func(string) (*rctree.Tree, error) {
			calls.Add(1)
			<-release
			if fail {
				return nil, errParse
			}
			return want, nil
		}
		load := c.Load
		const callers = 8
		var wg sync.WaitGroup
		trees := make([]*rctree.Tree, callers)
		errs := make([]error, callers)
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				trees[k], errs[k] = load("", "deck")
			}(k)
		}
		close(release)
		wg.Wait()
		for k := 0; k < callers; k++ {
			if fail && !errors.Is(errs[k], errParse) || !fail && (errs[k] != nil || trees[k] != want) {
				t.Fatalf("fail=%v: caller %d got %p, %v", fail, k, trees[k], errs[k])
			}
		}
		if !fail {
			if got := calls.Load(); got != 1 {
				t.Fatalf("%d parses for %d concurrent callers, want 1", got, callers)
			}
			continue
		}
		before := calls.Load()
		if _, err := load("", "deck"); !errors.Is(err, errParse) || calls.Load() != before+1 {
			t.Fatalf("a failed load was cached: err %v, parses %d -> %d", err, before, calls.Load())
		}
	}
}

// A cache of capacity 0 (elmored -hot-trees 0) parses every load.
func TestTreeCacheOff(t *testing.T) {
	c := NewTreeCache(0, "batch.hot_tree")
	parses := 0
	c.parse = func(text string) (*rctree.Tree, error) {
		parses++
		return parseDeck(text)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Load("", specNet); err != nil {
			t.Fatal(err)
		}
	}
	if parses != 3 || c.Len() != 0 {
		t.Fatalf("disabled cache: %d parses for 3 loads, %d trees held; want 3 and 0", parses, c.Len())
	}
}

// A net file rewritten in place is answered from its new text: Load
// reads the file on every call and looks the tree up by its contents,
// never by the path. Keyed on the path, a rewritten deck (Elmore delay
// 50 ps at z) was answered from the old tree's 9.5 ps, an
// anti-conservative bound.
func TestTreeCacheLoadRewrittenFile(t *testing.T) {
	c := NewTreeCache(8, "batch.hot_tree")
	path := filepath.Join(t.TempDir(), "net.sp")
	deckB := strings.Replace(specNet, "R2 a z 150", "R2 a z 1500", 1)
	for _, deck := range []string{specNet, deckB, specNet} {
		if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := c.Load(path, "")
		if err != nil {
			t.Fatal(err)
		}
		want, err := parseDeck(deck)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("Load after a rewrite returned the tree of another text")
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d trees for 2 distinct texts", c.Len())
	}
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ns":\d+`)
	traceField   = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// maskVolatile blanks the record fields that differ between two runs of
// one batch: timing, the minted trace ID, and which job of a shared net
// happened to compute its moments.
func maskVolatile(records string) string {
	records = strings.ReplaceAll(records, `"cache_hit":true,`, "")
	records = elapsedField.ReplaceAllString(records, `"elapsed_ns":0`)
	return traceField.ReplaceAllString(records, `"trace_id":""`)
}

// TestCornerBatchParsesEachDeckOnce runs K decks x 3 input corners
// through RunSpecsOpts with the default loader, the CLI batch path. In
// net-major order (the corners of one net adjacent, K within the cache)
// every deck is parsed exactly once; in corner-major order with more
// decks than the cache holds, entries are evicted between the corners
// of one net. Either way every record, error records included, matches
// a run that parses every job afresh.
func TestCornerBatchParsesEachDeckOnce(t *testing.T) {
	dir := t.TempDir()
	const decks = DefaultHotTrees + 16
	paths := make([]string, decks)
	for i := range paths {
		tree := topo.Random(int64(i), topo.RandomOptions{N: 2 + i%7})
		paths[i] = filepath.Join(dir, fmt.Sprintf("n%d.sp", i))
		if err := os.WriteFile(paths[i], []byte(netlist.Format(tree, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	malformed := filepath.Join(dir, "malformed.sp")
	if err := os.WriteFile(malformed, []byte("Vin in 0 1\nR1 in\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.sp")
	wantErr := map[string]string{
		missing:   "open " + missing + ": no such file or directory",
		dir:       dir + ": netlist: read: read " + dir + ": is a directory",
		malformed: malformed + ": netlist: line 2: resistor needs 'Rname n1 n2 value'",
	}
	corners := []string{"step", "100p", "1n"}

	for _, tc := range []struct {
		name        string
		decks       int
		cornerMajor bool
	}{
		{"net-major", 100, false},
		{"corner-major", decks, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nets := append(append([]string(nil), paths[:tc.decks]...), missing, dir, malformed)
			var specs []JobSpec
			add := func(n, c int) {
				specs = append(specs, JobSpec{ID: fmt.Sprintf("n%d/%s", n, corners[c]), Net: nets[n], Rise: corners[c]})
			}
			for a := 0; a < len(nets)*len(corners); a++ {
				if tc.cornerMajor {
					add(a%len(nets), a/len(nets))
				} else {
					add(a/len(corners), a%len(corners))
				}
			}

			run := func(load TreeLoader) []string {
				var out bytes.Buffer
				eng := &Engine{Workers: 4}
				st, err := RunSpecsOpts(context.Background(), eng, nil, &out, SpecRunOptions{Specs: specs, Loader: load})
				if err != nil {
					t.Fatal(err)
				}
				if want := 3 * len(corners); st.Failed != want {
					t.Fatalf("%d failed records, want %d", st.Failed, want)
				}
				return strings.Split(maskVolatile(out.String()), "\n")
			}
			reg := telemetry.NewRegistry()
			prev := telemetry.SetDefault(reg)
			cached := run(nil)
			telemetry.SetDefault(prev)
			fresh := run(DefaultTreeLoader)

			if len(cached) != len(fresh) {
				t.Fatalf("%d records, uncached run %d", len(cached), len(fresh))
			}
			for i := range cached {
				if cached[i] != fresh[i] {
					t.Fatalf("record %d differs from the uncached run:\n got %s\nwant %s", i, cached[i], fresh[i])
				}
			}
			for i, s := range specs {
				if want, ok := wantErr[s.Net]; ok && !strings.Contains(cached[i], fmt.Sprintf(`"error":%q`, want)) {
					t.Fatalf("record %d: %s\nwant error %q", i, cached[i], want)
				}
			}

			misses := reg.Counter("batch.hot_tree_misses").Value()
			hits := reg.Counter("batch.hot_tree_hits").Value()
			evictions := reg.Counter("batch.hot_tree_evictions").Value()
			if !tc.cornerMajor {
				if misses != int64(tc.decks) || hits != int64(2*tc.decks) || evictions != 0 {
					t.Fatalf("%d decks x %d corners: %d parses, %d hits, %d evictions; want %d, %d, 0",
						tc.decks, len(corners), misses, hits, evictions, tc.decks, 2*tc.decks)
				}
			} else if evictions == 0 || misses+hits != int64(len(corners)*tc.decks) {
				t.Fatalf("%d decks x %d corners corner-major: %d parses, %d hits, %d evictions; want evictions and one parse or hit per load",
					tc.decks, len(corners), misses, hits, evictions)
			}
		})
	}
}

// heldTrees returns a tree cache holding trees, as if each had been
// parsed from a deck of its own, so an engine whose Trees it is serves
// jobs on them from their entries.
func heldTrees(t testing.TB, trees ...*rctree.Tree) *TreeCache {
	t.Helper()
	c := NewTreeCache(len(trees), "batch.hot_tree")
	decks := make(map[string]*rctree.Tree, len(trees))
	c.parse = func(text string) (*rctree.Tree, error) { return decks[text], nil }
	for i, tree := range trees {
		text := fmt.Sprintf("deck %d", i)
		decks[text] = tree
		if got, err := c.Load("", text); err != nil || got != tree {
			t.Fatalf("loading %s: %p, %v", text, got, err)
		}
	}
	return c
}

// heldEntry returns the entry of c that holds tree.
func heldEntry(t testing.TB, c *TreeCache, tree *rctree.Tree) *treeEntry {
	t.Helper()
	e := c.entry(nil, tree)
	if e == nil {
		t.Fatalf("tree cache does not hold the tree")
	}
	return e
}

// The job that computes an entry's moment set is the one miss, in the
// worker's stats and in the telemetry counters; the same holds for a
// simulation plan. A tree the cache does not hold computes for itself,
// and counts as a miss too.
func TestCacheMissClassifiedByCompute(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	tree := chainNet(t, 8)
	e := &Engine{Trees: heldTrees(t, tree)}
	ws := &WorkerStats{}
	ctx := withWorkerStats(context.Background(), ws)
	for k, want := range []bool{false, true} {
		if _, hit, err := e.momentSet(ctx, tree); err != nil || hit != want {
			t.Fatalf("lookup %d: hit=%v err=%v, want hit=%v", k, hit, err, want)
		}
	}
	if ws.CacheMisses != 1 || ws.CacheHits != 1 {
		t.Errorf("worker stats misses=%d hits=%d, want 1 and 1", ws.CacheMisses, ws.CacheHits)
	}
	if m, h := reg.Counter("batch.cache_misses").Value(), reg.Counter("batch.cache_hits").Value(); m != 1 || h != 1 {
		t.Errorf("telemetry misses=%d hits=%d, want 1 and 1", m, h)
	}
	tj := &TranJob{DT: 0.5}
	for k, want := range []bool{false, true} {
		if _, hit, err := e.runTran(ctx, tj, tree); err != nil || hit != want {
			t.Fatalf("plan lookup %d: hit=%v err=%v, want hit=%v", k, hit, err, want)
		}
	}
	if ws.CacheMisses != 2 || reg.Counter("batch.plan_cache_misses").Value() != 1 {
		t.Errorf("worker misses=%d, plan misses=%d after one plan build, want 2 and 1",
			ws.CacheMisses, reg.Counter("batch.plan_cache_misses").Value())
	}
	if _, hit, err := e.momentSet(ctx, tree.Clone()); err != nil || hit {
		t.Fatalf("tree the cache does not hold: hit=%v err=%v, want a miss", hit, err)
	}
	if ws.CacheMisses != 3 || reg.Counter("batch.cache_misses").Value() != 2 {
		t.Errorf("a compute outside the cache was not counted as a miss")
	}
}

// TestCacheExactlyOneMissUnderRace races many workers on one deck:
// whatever interleaving the scheduler picks, exactly one of them
// computes the entry's moment set, and every worker gets that set.
func TestCacheExactlyOneMissUnderRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	tree := chainNet(t, 12)
	e := &Engine{Trees: heldTrees(t, tree)}
	const workers = 32
	stats := make([]WorkerStats, workers)
	sets := make([]*moments.Set, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ms, _, err := e.momentSet(withWorkerStats(context.Background(), &stats[g]), tree)
			if err != nil {
				t.Error(err)
			}
			sets[g] = ms
		}(g)
	}
	wg.Wait()
	var hits, misses int64
	for g := range stats {
		hits += stats[g].CacheHits
		misses += stats[g].CacheMisses
		if sets[g] != sets[0] {
			t.Fatalf("worker %d received a different moment set", g)
		}
	}
	if misses != 1 || hits != workers-1 {
		t.Errorf("misses=%d hits=%d across %d workers, want exactly 1 and %d",
			misses, hits, workers, workers-1)
	}
	if n := reg.Counter("moments.computes").Value(); n != 1 {
		t.Errorf("%d moment computes for one deck, want 1", n)
	}
}

// TestCacheTransientEvictionUnderRace races two workers into a
// transiently failing compute: both see the error, the entry keeps no
// trace of it, and once the injector is gone the next caller computes
// successfully.
func TestCacheTransientEvictionUnderRace(t *testing.T) {
	installFaults(t, 7,
		faultinject.Rule{Point: "moments.compute", Kind: faultinject.KindError, Prob: 1},
	)
	tree := chainNet(t, 10)
	c := heldTrees(t, tree)
	e := &Engine{Trees: c}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, errs[g] = e.momentSet(context.Background(), tree)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Errorf("worker %d did not see the injected transient error", g)
		}
	}
	if n := len(heldEntry(t, c, tree).derived); n != 0 {
		t.Errorf("entry holds %d pieces of state after a transient failure, want 0 (error pinned)", n)
	}
	faultinject.SetDefault(nil)
	if _, hit, err := e.momentSet(context.Background(), tree); err != nil || hit {
		t.Errorf("post-fault compute: hit=%v err=%v, want a fresh miss", hit, err)
	}
	if _, hit, err := e.momentSet(context.Background(), tree); err != nil || !hit {
		t.Errorf("post-fault lookup: hit=%v err=%v, want the recomputed set", hit, err)
	}
}

// A panicking compute releases its waiters with a panic error and
// leaves the entry empty, so the next caller computes again.
func TestCachePanickedComputeNotKept(t *testing.T) {
	tree := chainNet(t, 6)
	en := heldEntry(t, heldTrees(t, tree), tree)
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		en.derive(nil, derivedKey{}, func() (any, error) {
			close(started)
			<-release
			panic("compute bomb")
		})
	}()
	<-started
	waited := make(chan error)
	go func() {
		// A waiter that arrives after the panic computes for itself;
		// its transient failure is not kept either.
		_, _, err := en.derive(nil, derivedKey{}, func() (any, error) { return nil, context.DeadlineExceeded })
		waited <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-waited; resilience.Classify(err) != resilience.Panicked && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter on a panicked compute got %v, want a panic error", err)
	}
	v, hit, err := en.derive(nil, derivedKey{}, func() (any, error) { return moments.Compute(tree) })
	if err != nil || hit || v == nil {
		t.Errorf("after a panicked compute: hit=%v err=%v, want a fresh compute", hit, err)
	}
}

// TestCacheMutationNoStaleEntries: a cached tree mutated through SetR
// or a bulk edit after its entry computed a moment set is never served
// that set; it gets a fresh one describing its new values.
func TestCacheMutationNoStaleEntries(t *testing.T) {
	tree := chainNet(t, 12)
	e := &Engine{Trees: heldTrees(t, tree)}
	ctx := context.Background()
	ms1, hit, err := e.momentSet(ctx, tree)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	for _, mutate := range []func() error{
		func() error { return tree.SetR(5, tree.R(5)*3) },
		func() error { return tree.ScaleValues(2, 1) },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		ms, hit, err := e.momentSet(ctx, tree)
		if err != nil {
			t.Fatal(err)
		}
		if hit || ms == ms1 {
			t.Fatalf("mutated tree was served the stale pre-mutation moment set")
		}
		want, err := moments.Compute(tree)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.N(); i++ {
			if ms.Elmore(i) != want.Elmore(i) {
				t.Fatalf("post-mutation set stale at node %d", i)
			}
		}
	}
}

// Eviction drops an entry's state with its tree: in a cache of
// capacity 1, a deck evicted by another deck is parsed and computed
// again when it comes back.
func TestTreeCacheEvictionDropsDerivedState(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	c := NewTreeCache(1, "batch.hot_tree")
	e := &Engine{Workers: 1, Trees: c}
	deckB := strings.Replace(specNet, "R2 a z 150", "R2 a z 1500", 1)
	var jobs []Job
	for k, deck := range []string{specNet, specNet, deckB, specNet} {
		deck := deck
		jobs = append(jobs, Job{ID: fmt.Sprint(k), Net: &NetJob{Load: func() (*rctree.Tree, error) { return c.Load("", deck) }}})
	}
	var hits []bool
	for _, r := range e.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		hits = append(hits, r.CacheHit)
	}
	if want := []bool{false, true, false, false}; !slices.Equal(hits, want) {
		t.Fatalf("cache hits %v, want %v (the evicted deck computes again)", hits, want)
	}
	if n := reg.Counter("moments.computes").Value(); n != 3 {
		t.Errorf("%d moment computes, want 3", n)
	}
	if c.Len() != 1 || len(c.byTree) != 1 {
		t.Errorf("cache holds %d trees, %d by tree; want 1 and 1", c.Len(), len(c.byTree))
	}
}

// heapProbe is an io.Writer that counts result lines and, after the
// lines named in at, collects garbage and records the live heap.
type heapProbe struct {
	lines int
	at    map[int]*uint64
}

func (p *heapProbe) Write(b []byte) (int, error) {
	p.lines += bytes.Count(b, []byte{'\n'})
	if live, ok := p.at[p.lines]; ok {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		*live = ms.HeapAlloc
	}
	return len(b), nil
}

// derivedStateBudget bounds how much the live heap of a CLI batch run
// may grow over 3 x DefaultHotTrees further distinct decks once its
// tree cache is full. One 48-node deck's tree and moment set take about
// 5 KiB, so a run that kept them for every deck grows by some 4 MiB
// (4.1 MB measured with a moment cache keyed by tree fingerprint); a
// bounded run does not grow (-15 KB measured).
const derivedStateBudget = 1 << 20

// A run's derived state is bounded by its tree cache: the moment sets
// of 4 x DefaultHotTrees distinct decks, three corners each, leave no
// more than DefaultHotTrees decks' worth of trees and sets alive.
func TestRunDerivedStateBounded(t *testing.T) {
	const decks = 4 * DefaultHotTrees
	corners := []string{"step", "100p", "1n"}
	specs := make([]JobSpec, 0, decks*len(corners))
	for i := 0; i < decks; i++ {
		deck := netlist.Format(topo.Random(int64(i), topo.RandomOptions{N: 48}), "")
		for _, c := range corners {
			specs = append(specs, JobSpec{ID: fmt.Sprintf("n%d/%s", i, c), Netlist: deck, Sinks: []string{"n1"}, Rise: c})
		}
	}
	var full, last uint64
	probe := &heapProbe{at: map[int]*uint64{
		DefaultHotTrees * len(corners): &full,
		len(specs):                     &last,
	}}
	st, err := RunSpecsOpts(context.Background(), &Engine{Workers: 2}, nil, probe, SpecRunOptions{Specs: specs})
	if err != nil || st.Failed != 0 {
		t.Fatalf("run: %+v, %v", st, err)
	}
	grew := int64(last) - int64(full)
	t.Logf("live heap %d B with the tree cache full, %d B after %d more decks: %+d B", full, last, decks-DefaultHotTrees, grew)
	if grew > derivedStateBudget {
		t.Errorf("live heap grew %d B over %d decks past the tree cache, budget %d", grew, decks-DefaultHotTrees, derivedStateBudget)
	}
}
