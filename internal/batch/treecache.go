package batch

import (
	"container/list"
	"errors"
	"slices"
	"sync"

	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
)

// DefaultHotTrees is the tree cache's default capacity: elmored's
// -hot-trees default, and the size of the cache a CLI batch run builds
// for itself (see SpecRunOptions.Loader).
const DefaultHotTrees = 256

// TreeCache is a bounded LRU of parsed RC trees keyed on deck text, so
// repeated decks skip parsing. Its Load method is a TreeLoader: a file
// reference is read whole on every call and looked up by its contents,
// inline text by itself, so the key comparison of the map is what
// proves a hit parses to the cached tree, and a file rewritten in place
// is parsed again. An entry pins its deck text and tree, never the
// request that carried them. Cached trees are shared between callers
// and must be treated as read-only.
//
// Concurrent misses on one text parse it once: the callers that wait
// for that parse count as hits. A failed load is returned to its
// waiters but never cached.
//
// An entry also holds the state an Engine derives from its tree: the
// moment set and the transient-simulation plans. The engine finds the
// entry by the tree the cache handed out, computes each piece once per
// entry, and loses it when the entry is evicted.
type TreeCache struct {
	max                     int
	hits, misses, evictions string // telemetry counter names
	// parse turns a missed text into its tree: parseDeck, or a fake in
	// tests.
	parse func(text string) (*rctree.Tree, error)

	mu      sync.Mutex
	byText  map[string]*list.Element    // deck text -> LRU element
	byTree  map[*rctree.Tree]*treeEntry // cached tree -> its entry
	lru     *list.List                  // front = most recently used
	loading map[string]*treeLoad        // deck text -> parse in flight
}

// treeEntry is one cached tree, the deck text it was parsed from, and
// the state derived from the tree.
type treeEntry struct {
	text string
	tree *rctree.Tree
	gen  uint64 // tree.Generation() when cached

	mu      sync.Mutex
	derived []*derived // the moment set and plans, in order of first use
}

// derivedKey names one piece of state derived from an entry's tree:
// the moment set (the zero key), or the simulation plan for one step
// size (by bit pattern, so 1e-12 and its nearest neighbor get distinct
// plans) and integration method.
type derivedKey struct {
	plan   bool
	dtBits uint64
	method sim.Method
}

// derived is one piece of derived state; done is released once val
// and err are set.
type derived struct {
	key  derivedKey
	done sync.WaitGroup
	val  any // *moments.Set or *sim.Plan
	err  error
}

// treeLoad is one text's parse in flight; done closes once tree and err
// are set.
type treeLoad struct {
	done chan struct{}
	tree *rctree.Tree
	err  error
}

// NewTreeCache returns a cache holding at most max trees; max <= 0
// disables caching (every load parses). Hits, misses (loads that parsed
// and cached a tree) and evictions are counted in the telemetry
// counters metrics+"_hits", metrics+"_misses" and metrics+"_evictions".
func NewTreeCache(max int, metrics string) *TreeCache {
	return &TreeCache{
		max:       max,
		hits:      metrics + "_hits",
		misses:    metrics + "_misses",
		evictions: metrics + "_evictions",
		parse:     parseDeck,
		byText:    make(map[string]*list.Element),
		byTree:    make(map[*rctree.Tree]*treeEntry),
		lru:       list.New(),
		loading:   make(map[string]*treeLoad),
	}
}

// Load resolves a spec net reference as DefaultTreeLoader does, with
// the same errors, parsing only decks the cache does not hold.
func (c *TreeCache) Load(net, netlist string) (*rctree.Tree, error) {
	return loadTree(net, netlist, c.get)
}

// errTreeLoadPanicked is what callers waiting on a parse see when the
// parsing caller panicked instead of returning.
var errTreeLoadPanicked = errors.New("batch: parsing the deck panicked")

// get returns the tree of deck text, parsing it on a miss.
func (c *TreeCache) get(text string) (*rctree.Tree, error) {
	if c.max <= 0 {
		return c.parse(text)
	}
	c.mu.Lock()
	if el, ok := c.byText[text]; ok {
		c.lru.MoveToFront(el)
		tree := el.Value.(*treeEntry).tree
		c.mu.Unlock()
		telemetry.C(c.hits).Inc()
		return tree, nil
	}
	if ld, ok := c.loading[text]; ok {
		c.mu.Unlock()
		<-ld.done
		if ld.err == nil {
			telemetry.C(c.hits).Inc()
		}
		return ld.tree, ld.err
	}
	ld := &treeLoad{done: make(chan struct{}), err: errTreeLoadPanicked}
	c.loading[text] = ld
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.loading, text)
		c.mu.Unlock()
		close(ld.done)
	}()

	ld.tree, ld.err = c.parse(text)
	if ld.err == nil {
		telemetry.C(c.misses).Inc()
		c.insert(text, ld.tree)
	}
	return ld.tree, ld.err
}

// insert caches tree under text, evicting the least recently used
// trees beyond the capacity.
func (c *TreeCache) insert(text string, tree *rctree.Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &treeEntry{text: text, tree: tree, gen: tree.Generation()}
	c.byText[text] = c.lru.PushFront(e)
	c.byTree[tree] = e
	for c.lru.Len() > c.max {
		victim := c.lru.Remove(c.lru.Back()).(*treeEntry)
		delete(c.byText, victim.text)
		delete(c.byTree, victim.tree)
		telemetry.C(c.evictions).Inc()
	}
}

// entry returns the entry holding tree t, or nil when c is nil, does
// not hold t, or t's element values changed since it was cached. Time
// blocked on the cache's lock is charged to ws.
func (c *TreeCache) entry(ws *WorkerStats, t *rctree.Tree) *treeEntry {
	if c == nil || c.max <= 0 {
		return nil
	}
	t0 := lockStart(ws)
	c.mu.Lock()
	lockEnd(ws, t0)
	e := c.byTree[t]
	c.mu.Unlock()
	if e == nil || e.gen != t.Generation() {
		return nil
	}
	return e
}

// errDerivePanicked is what callers waiting on a compute see when the
// computing caller panicked instead of returning.
var errDerivePanicked = &resilience.PanicError{Value: "batch: computing the tree's derived state panicked"}

// derive returns the entry's state under key, computing it on first
// use. Callers that find the compute in flight wait for it, and the
// wait is charged to ws as lock wait. hit reports whether this caller
// reused state another caller computed. A failure reaches every
// waiter; a permanent one (bad element values) is kept, since a
// recompute fails alike, but any other (an injected fault, a panic) is
// dropped so the next caller computes again.
func (e *treeEntry) derive(ws *WorkerStats, key derivedKey, compute func() (any, error)) (val any, hit bool, err error) {
	t0 := lockStart(ws)
	e.mu.Lock()
	lockEnd(ws, t0)
	for _, d := range e.derived {
		if d.key == key {
			e.mu.Unlock()
			t1 := lockStart(ws)
			d.done.Wait()
			lockEnd(ws, t1)
			return d.val, true, d.err
		}
	}
	d := &derived{key: key, err: errDerivePanicked}
	d.done.Add(1)
	e.derived = append(e.derived, d)
	e.mu.Unlock()
	defer func() {
		if d.err != nil && resilience.Classify(d.err) != resilience.Permanent {
			e.mu.Lock()
			e.derived = slices.DeleteFunc(e.derived, func(x *derived) bool { return x == d })
			e.mu.Unlock()
		}
		d.done.Done()
	}()
	d.val, d.err = compute()
	return d.val, false, d.err
}

// Len reports the number of cached trees.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
