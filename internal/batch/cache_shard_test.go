package batch

// Tests for the sharded cache introduced to fix the flat 1→8 worker
// scaling curve: zero-value usability on both keyed paths, post-Do
// hit/miss classification, and transient-error eviction that never
// removes a newer replacement entry. The concurrency cases are
// meaningful under `go test -race` but assert their invariants
// without it too.

import (
	"sync"
	"testing"

	"elmore/internal/faultinject"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
)

// forceShards pre-empts the lazy GOMAXPROCS-sized stripe init with a
// fixed stripe count, so sharding behavior is exercised even on the
// single-CPU boxes where defaultShards() == 1.
func forceShards(t *testing.T, c *Cache, n int) {
	t.Helper()
	if n&(n-1) != 0 {
		t.Fatalf("forceShards(%d): stripe count must be a power of two", n)
	}
	c.init.Do(func() {
		c.shards = make([]cacheShard, n)
		c.mask = uint64(n - 1)
	})
	if len(c.shards) != n {
		t.Fatalf("stripe init raced: got %d shards, want %d", len(c.shards), n)
	}
}

// TestCacheZeroValueUsable is the regression test for the zero-value
// asymmetry: the moments path used to panic on the nil shard map while
// the plans path lazily initialized its own. Both paths must now work
// on a plain Cache{} without NewCache.
func TestCacheZeroValueUsable(t *testing.T) {
	var c Cache
	tree := chainNet(t, 8)
	ms, hit, err := c.Moments(tree, 3)
	if err != nil {
		t.Fatalf("zero-value Moments: %v", err)
	}
	if ms == nil || hit {
		t.Errorf("zero-value Moments: set=%v hit=%v, want a computed miss", ms, hit)
	}
	plan, hit, err := c.Plan(tree, 1e-12, sim.BackwardEuler)
	if err != nil {
		t.Fatalf("zero-value Plan: %v", err)
	}
	if plan == nil || hit {
		t.Errorf("zero-value Plan: plan=%v hit=%v, want a built miss", plan, hit)
	}
	if c.Len() != 1 || c.PlanLen() != 1 {
		t.Errorf("Len=%d PlanLen=%d, want 1 and 1", c.Len(), c.PlanLen())
	}
	if n := c.Shards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("Shards() = %d, want a power of two >= 1", n)
	}
}

// TestCacheSpreadsAcrossShards drives distinct circuits through a
// multi-stripe cache and checks the aggregate accessors count across
// every stripe, not just the first.
func TestCacheSpreadsAcrossShards(t *testing.T) {
	c := NewCache()
	forceShards(t, c, 8)
	const nets = 32
	for i := 0; i < nets; i++ {
		tree := chainNet(t, 3+i)
		if _, _, err := c.Moments(tree, 3); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Plan(tree, 1e-12, sim.BackwardEuler); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != nets || c.PlanLen() != nets {
		t.Fatalf("Len=%d PlanLen=%d, want %d each", c.Len(), c.PlanLen(), nets)
	}
	// The Fibonacci remix must actually spread the keys: with 32 keys
	// over 8 stripes, everything landing on one stripe means the hash
	// is degenerate.
	populated := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.m) > 0 {
			populated++
		}
		sh.mu.Unlock()
	}
	if populated < 2 {
		t.Errorf("%d circuits collapsed onto %d of %d stripes", nets, populated, len(c.shards))
	}
}

// TestCacheMissClassifiedByCompute is the regression test for the
// hit/miss misattribution: a goroutine that *finds* the entry in the
// map but then wins the once.Do pays for the computation and must be
// counted as the miss, not a hit. Pre-inserting an unresolved entry
// makes that path deterministic.
func TestCacheMissClassifiedByCompute(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	c := NewCache()
	tree := chainNet(t, 8)
	key := tree.Fingerprint()
	sh := c.shard(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]*cacheEntry)
	}
	sh.m[key] = &cacheEntry{} // inserted, never computed
	sh.mu.Unlock()

	ws := &WorkerStats{}
	if _, hit, err := c.moments(ws, tree, 3); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Errorf("finder that ran the compute classified as hit")
	}
	if ws.CacheMisses != 1 || ws.CacheHits != 0 {
		t.Errorf("worker stats misses=%d hits=%d, want 1 and 0", ws.CacheMisses, ws.CacheHits)
	}
	if got := telemetry.C("batch.cache_misses").Value(); got != 1 {
		t.Errorf("telemetry misses = %d, want 1", got)
	}

	// Same asymmetry on the plans path.
	pkey := planKey{fp: key, dtBits: 0x3fe0000000000000, method: sim.BackwardEuler}
	psh := c.shard(pkey.fp)
	psh.mu.Lock()
	if psh.plans == nil {
		psh.plans = make(map[planKey]*planEntry)
	}
	psh.plans[pkey] = &planEntry{}
	psh.mu.Unlock()
	if _, hit, err := c.plan(ws, tree, 0.5, sim.BackwardEuler); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Errorf("plan finder that ran the build classified as hit")
	}
	if ws.CacheMisses != 2 {
		t.Errorf("worker stats misses=%d after plan build, want 2", ws.CacheMisses)
	}
}

// TestCacheExactlyOneMissUnderRace races many workers on one circuit:
// whatever interleaving the scheduler picks, exactly one of them ran
// the compute, so the per-worker counters must sum to exactly one miss
// — the invariant the post-Do classification guarantees and the old
// found-in-map classification violated.
func TestCacheExactlyOneMissUnderRace(t *testing.T) {
	c := NewCache()
	forceShards(t, c, 8)
	base := chainNet(t, 12)
	const workers = 32
	stats := make([]WorkerStats, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.moments(&stats[g], base.Clone(), 3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var hits, misses int64
	for g := range stats {
		hits += stats[g].CacheHits
		misses += stats[g].CacheMisses
	}
	if misses != 1 || hits != workers-1 {
		t.Errorf("misses=%d hits=%d across %d workers, want exactly 1 and %d",
			misses, hits, workers, workers-1)
	}
}

// TestCacheTransientEvictionUnderRace races two workers into a
// transiently failing entry: both must surface the error, the cache
// must be clean afterwards (no pinned error entry), and once the fault
// injector is gone the next caller recomputes successfully.
func TestCacheTransientEvictionUnderRace(t *testing.T) {
	installFaults(t, 7,
		faultinject.Rule{Point: "moments.compute", Kind: faultinject.KindError, Prob: 1},
	)
	c := NewCache()
	forceShards(t, c, 8)
	base := chainNet(t, 10)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[g] = c.Moments(base.Clone(), 3)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Errorf("worker %d did not see the injected transient error", g)
		}
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after a transient failure, want 0 (error pinned)", c.Len())
	}
	faultinject.SetDefault(nil)
	if _, _, err := c.Moments(base.Clone(), 3); err != nil {
		t.Errorf("post-fault recompute failed: %v", err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries after recovery, want 1", c.Len())
	}
}

// TestEvictNeverRemovesNewerEntry pins the guard inside the evictors: a
// stale eviction (the caller's failed entry was already evicted and a
// fresh one re-inserted under the same key) must leave the replacement
// alone. Without the identity check, a slow worker returning from a
// failed compute could silently discard another worker's good result.
func TestEvictNeverRemovesNewerEntry(t *testing.T) {
	c := NewCache()
	forceShards(t, c, 4)
	tree := chainNet(t, 8)
	key := tree.Fingerprint()

	stale := &cacheEntry{}
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m = map[uint64]*cacheEntry{key: stale}
	sh.mu.Unlock()
	c.evictMoments(key, stale)
	if c.Len() != 0 {
		t.Fatalf("evicting the current entry left Len=%d, want 0", c.Len())
	}
	// A newer entry replaces the evicted one; the stale evictor fires
	// again (as a slow goroutine would) and must be a no-op.
	if _, _, err := c.Moments(tree, 3); err != nil {
		t.Fatal(err)
	}
	c.evictMoments(key, stale)
	if c.Len() != 1 {
		t.Errorf("stale eviction removed the replacement moment entry")
	}
	ms, hit, err := c.Moments(tree, 3)
	if err != nil || !hit || ms == nil {
		t.Errorf("replacement entry unusable after stale eviction: hit=%v err=%v", hit, err)
	}

	// Same guard on the plans side.
	pkey := planKey{fp: key, dtBits: 1, method: sim.BackwardEuler}
	staleP := &planEntry{}
	sh.mu.Lock()
	sh.plans = map[planKey]*planEntry{pkey: staleP}
	sh.mu.Unlock()
	c.evictPlan(pkey, staleP)
	if c.PlanLen() != 0 {
		t.Fatalf("evicting the current plan entry left PlanLen=%d, want 0", c.PlanLen())
	}
	sh.mu.Lock()
	sh.plans[pkey] = &planEntry{}
	sh.mu.Unlock()
	c.evictPlan(pkey, staleP)
	if c.PlanLen() != 1 {
		t.Errorf("stale eviction removed the replacement plan entry")
	}
}
