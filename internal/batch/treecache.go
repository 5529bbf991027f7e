package batch

import (
	"container/list"
	"errors"
	"sync"

	"elmore/internal/rctree"
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
type TreeCache struct {
	max                     int
	hits, misses, evictions string // telemetry counter names
	// parse turns a missed text into its tree: parseDeck, or a fake in
	// tests.
	parse func(text string) (*rctree.Tree, error)

	mu      sync.Mutex
	byText  map[string]*list.Element // deck text -> LRU element
	lru     *list.List               // front = most recently used
	loading map[string]*treeLoad     // deck text -> parse in flight
}

// treeEntry is one cached tree and the deck text it was parsed from.
type treeEntry struct {
	text string
	tree *rctree.Tree
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
	c.byText[text] = c.lru.PushFront(&treeEntry{text: text, tree: tree})
	for c.lru.Len() > c.max {
		victim := c.lru.Remove(c.lru.Back()).(*treeEntry)
		delete(c.byText, victim.text)
		telemetry.C(c.evictions).Inc()
	}
}

// Len reports the number of cached trees.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
