package batch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
)

// Cache is a shared cache of per-circuit derived artifacts, keyed by
// tree fingerprint (rctree.Tree.Fingerprint): moment sets, and
// transient-simulation plans keyed additionally by (dt, method).
// Entries are immutable once computed — a moments.Set or sim.Plan is
// never written after construction — so one entry may be handed to any
// number of concurrent workers. Each circuit is
// computed exactly once: goroutines that race on a missing entry block
// until the first one finishes, instead of duplicating work.
//
// The map guarding each key is striped: the cache holds a power-of-two
// number of shards (rounded up from GOMAXPROCS at first use), each with
// its own mutex and maps, selected by the circuit fingerprint. Workers
// hammering heterogeneous nets therefore contend only when their nets
// land on the same stripe, instead of convoying on one global lock —
// the serialization that kept the 1→8 worker batch curve flat. Lock
// wait is still attributed per worker through the context-carried
// WorkerStats, so a hot stripe shows up in the scalestat report rather
// than hiding.
//
// The zero value is ready to use: shards and their maps initialize
// lazily on first access, for both the moments and the plans path.
//
// The cache trusts fingerprints: callers must not mutate a tree (SetR/
// SetC) between jobs that share it. As a cheap collision guard, a hit
// whose stored set disagrees with the requesting tree's node count is
// reported as an error rather than returned.
type Cache struct {
	init   sync.Once
	shards []cacheShard
	mask   uint64
}

// cacheShard is one stripe: a mutex plus the two keyed maps. Padded to
// a cache line so neighboring stripes' locks do not false-share.
type cacheShard struct {
	mu    sync.Mutex
	m     map[uint64]*cacheEntry
	plans map[planKey]*planEntry
	_     [40]byte
}

type cacheEntry struct {
	once sync.Once
	ms   *moments.Set
	err  error
}

// planKey identifies one transient-simulation plan: the circuit
// fingerprint plus the exact step size (by bit pattern — plans for
// 1e-12 and the nearest representable neighbor are distinct) and the
// integration method.
type planKey struct {
	fp     uint64
	dtBits uint64
	method sim.Method
}

type planEntry struct {
	once sync.Once
	plan *sim.Plan
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{}
}

// defaultShards returns GOMAXPROCS rounded up to a power of two, so a
// full worker complement maps onto at least one stripe each.
func defaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

// shard returns the stripe owning fingerprint fp, initializing the
// stripe array on first use (which is what makes the zero value
// usable). The fingerprint is already a hash, but its low bits are
// remixed through a Fibonacci multiplier so clustered fingerprints
// still spread across stripes.
func (c *Cache) shard(fp uint64) *cacheShard {
	c.init.Do(func() {
		n := defaultShards()
		c.shards = make([]cacheShard, n)
		c.mask = uint64(n - 1)
	})
	return &c.shards[(fp*0x9E3779B97F4A7C15)>>32&c.mask]
}

// Moments returns the moment set for the circuit t describes, computing
// it on first use. hit reports whether this call reused an entry that
// another call computed (or was computing); a call that performed the
// compute itself reports a miss even if it found the entry already
// inserted. A moments.Set serves every order from 1 to 3 (T_D, μ2 and
// μ3), so any such order gets the one cached set; a higher order is an
// error.
func (c *Cache) Moments(t *rctree.Tree, order int) (*moments.Set, bool, error) {
	return c.moments(nil, t, order)
}

// MomentsCtx is Moments with worker attribution: when ctx carries a
// batch worker's stats, time blocked on the stripe mutex and on another
// worker's in-flight compute of the same entry is charged to that
// worker as lock wait, and the hit/miss lands in its per-worker
// counters. Engines call this; direct users can keep calling Moments.
func (c *Cache) MomentsCtx(ctx context.Context, t *rctree.Tree, order int) (*moments.Set, bool, error) {
	return c.moments(workerStatsFrom(ctx), t, order)
}

func (c *Cache) moments(ws *WorkerStats, t *rctree.Tree, order int) (*moments.Set, bool, error) {
	if order < 1 || order > 3 {
		return nil, false, fmt.Errorf("batch: moment order %d outside [1,3]", order)
	}
	key := t.Fingerprint()
	sh := c.shard(key)
	t0 := lockStart(ws)
	sh.mu.Lock()
	lockEnd(ws, t0)
	if sh.m == nil {
		sh.m = make(map[uint64]*cacheEntry)
	}
	e, found := sh.m[key]
	if !found {
		e = &cacheEntry{}
		sh.m[key] = e
	}
	sh.mu.Unlock()
	// Whoever wins the once computes (a goroutine that found the entry
	// can still win it when the inserting goroutine hasn't reached its
	// Do yet). Time spent here without running the closure is time
	// blocked on another worker's in-flight compute — charged as lock
	// wait.
	ran := false
	t1 := lockStart(ws)
	e.once.Do(func() {
		ran = true
		e.ms, e.err = moments.Compute(t)
	})
	if !ran {
		lockEnd(ws, t1)
	}
	// Hit/miss is classified by who did the compute, not by who found
	// the entry in the map: the goroutine that ran the closure paid for
	// the computation and is the run's one miss, everyone else — finder
	// or inserter — reused it. Classifying before the Do would count a
	// finder that won the race as a hit it never got.
	hit := !ran
	if hit {
		telemetry.C("batch.cache_hits").Inc()
		if ws != nil {
			ws.CacheHits++
		}
	} else {
		telemetry.C("batch.cache_misses").Inc()
		if ws != nil {
			ws.CacheMisses++
		}
	}
	if e.err != nil {
		// A permanent error (bad element values) is worth memoizing —
		// recomputation fails identically — but a transient one
		// (injected fault, cancellation) must not poison the entry for
		// every later job and retry on this circuit: evict it so the
		// next caller recomputes.
		if resilience.Classify(e.err) != resilience.Permanent {
			c.evictMoments(key, e)
		}
		return nil, hit, e.err
	}
	if e.ms.Tree().N() != t.N() {
		return nil, hit, fmt.Errorf("batch: fingerprint collision: cached set has %d nodes, tree has %d", e.ms.Tree().N(), t.N())
	}
	return e.ms, hit, nil
}

// evictMoments removes the moment entry for key, but only while e is
// still the cached value: a concurrent caller may already have evicted
// e and a later one re-inserted a fresh entry, which must survive.
func (c *Cache) evictMoments(key uint64, e *cacheEntry) {
	sh := c.shard(key)
	sh.mu.Lock()
	if sh.m[key] == e {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// Plan returns a transient-simulation plan for the circuit t describes,
// under the given fixed step and method, building it (stamp + factor)
// on first use. hit reports whether this call reused a plan
// built (or being built) by another call. Plans are immutable and
// shared: each worker must take its own sim.Runner from the returned
// plan. The same fingerprint-trust caveat as Moments applies — a tree
// mutated with SetR/SetC gets a new fingerprint and therefore a new
// plan, but mutating a tree mid-batch while another job holds its plan
// is a caller bug.
func (c *Cache) Plan(t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	return c.plan(nil, t, dt, method)
}

// PlanCtx is Plan with the same contention attribution as MomentsCtx.
func (c *Cache) PlanCtx(ctx context.Context, t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	return c.plan(workerStatsFrom(ctx), t, dt, method)
}

func (c *Cache) plan(ws *WorkerStats, t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	key := planKey{fp: t.Fingerprint(), dtBits: math.Float64bits(dt), method: method}
	sh := c.shard(key.fp)
	t0 := lockStart(ws)
	sh.mu.Lock()
	lockEnd(ws, t0)
	if sh.plans == nil {
		sh.plans = make(map[planKey]*planEntry)
	}
	e, found := sh.plans[key]
	if !found {
		e = &planEntry{}
		sh.plans[key] = e
	}
	sh.mu.Unlock()
	ran := false
	t1 := lockStart(ws)
	e.once.Do(func() {
		ran = true
		e.plan, e.err = sim.NewPlan(t, sim.PlanOptions{DT: dt, Method: method})
	})
	if !ran {
		lockEnd(ws, t1)
	}
	// Same post-Do classification as moments: the builder is the miss.
	hit := !ran
	if hit {
		telemetry.C("batch.plan_cache_hits").Inc()
		if ws != nil {
			ws.CacheHits++
		}
	} else {
		telemetry.C("batch.plan_cache_misses").Inc()
		if ws != nil {
			ws.CacheMisses++
		}
	}
	if e.err != nil {
		// Same eviction policy as Moments: only permanent failures are
		// worth remembering.
		if resilience.Classify(e.err) != resilience.Permanent {
			c.evictPlan(key, e)
		}
		return nil, hit, e.err
	}
	if e.plan.Tree().N() != t.N() {
		return nil, hit, fmt.Errorf("batch: fingerprint collision: cached plan has %d nodes, tree has %d", e.plan.Tree().N(), t.N())
	}
	return e.plan, hit, nil
}

// evictPlan is evictMoments for the plan map: remove key only while e
// is still the cached entry, never a newer replacement.
func (c *Cache) evictPlan(key planKey, e *planEntry) {
	sh := c.shard(key.fp)
	sh.mu.Lock()
	if sh.plans[key] == e {
		delete(sh.plans, key)
	}
	sh.mu.Unlock()
}

// Len returns the number of distinct circuits cached so far (moment
// sets; plans are keyed separately — see PlanLen).
func (c *Cache) Len() int {
	return c.lenOf(func(sh *cacheShard) int { return len(sh.m) })
}

// PlanLen returns the number of distinct (circuit, dt, method) plans
// cached so far.
func (c *Cache) PlanLen() int {
	return c.lenOf(func(sh *cacheShard) int { return len(sh.plans) })
}

func (c *Cache) lenOf(count func(*cacheShard) int) int {
	c.shard(0) // force stripe init so the loop sees the slice
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += count(sh)
		sh.mu.Unlock()
	}
	return total
}

// Shards reports the number of stripes the cache spreads its keys over
// (a power of two, rounded up from GOMAXPROCS at first use).
func (c *Cache) Shards() int {
	c.shard(0)
	return len(c.shards)
}
