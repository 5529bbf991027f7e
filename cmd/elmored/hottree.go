package main

import (
	"container/list"
	"errors"
	"hash/fnv"
	"sync"

	"elmore/internal/batch"
	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// hotTrees is the serve-mode hot-tree LRU: repeated nets skip
// parse+compile. It is two-level — a source-hash index (the bytes the
// client sent: a file path or an inline deck) in front of entries keyed
// by rctree.Fingerprint — so two textually different decks describing
// the same tree share one entry, and the cache key agrees with the
// moment/plan caches downstream. Cached trees are shared across
// requests and must be treated as immutable (serve jobs only read).
// Concurrent misses on one source parse it once: later callers wait
// for the load in flight and count as hits.
type hotTrees struct {
	mu      sync.Mutex
	max     int
	bySrc   map[uint64]uint64        // source hash -> tree fingerprint
	byFP    map[uint64]*list.Element // fingerprint -> LRU element
	lru     *list.List               // front = most recently used
	loading map[uint64]*hotLoad      // source hash -> load in flight
}

// hotLoad is one source's parse in flight; done closes once tree and
// err are set.
type hotLoad struct {
	done chan struct{}
	tree *rctree.Tree
	err  error
}

// hotEntry is one cached tree plus the source hashes that resolve to
// it, so eviction can drop its index entries too.
type hotEntry struct {
	fp   uint64
	tree *rctree.Tree
	srcs []uint64
}

// newHotTrees returns an LRU holding at most max trees; max <= 0
// disables caching (every load falls through).
func newHotTrees(max int) *hotTrees {
	return &hotTrees{
		max:     max,
		bySrc:   make(map[uint64]uint64),
		byFP:    make(map[uint64]*list.Element),
		lru:     list.New(),
		loading: make(map[uint64]*hotLoad),
	}
}

// srcHash fingerprints the client's net reference.
func srcHash(net, netlist string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(net))
	h.Write([]byte{0})
	h.Write([]byte(netlist))
	return h.Sum64()
}

// loader wraps fallback (nil = batch.DefaultTreeLoader) with the LRU.
func (c *hotTrees) loader(fallback batch.TreeLoader) batch.TreeLoader {
	if fallback == nil {
		fallback = batch.DefaultTreeLoader
	}
	if c == nil || c.max <= 0 {
		return fallback
	}
	return func(net, netlist string) (*rctree.Tree, error) {
		src := srcHash(net, netlist)
		c.mu.Lock()
		if fp, ok := c.bySrc[src]; ok {
			if el, ok := c.byFP[fp]; ok {
				c.lru.MoveToFront(el)
				tree := el.Value.(*hotEntry).tree
				c.mu.Unlock()
				telemetry.C("serve.hot_tree_hits").Inc()
				return tree, nil
			}
		}
		if ld, ok := c.loading[src]; ok {
			c.mu.Unlock()
			<-ld.done
			if ld.err == nil {
				telemetry.C("serve.hot_tree_hits").Inc()
			}
			return ld.tree, ld.err
		}
		ld := &hotLoad{done: make(chan struct{}), err: errHotLoadPanicked}
		c.loading[src] = ld
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			delete(c.loading, src)
			c.mu.Unlock()
			close(ld.done)
		}()

		ld.tree, ld.err = c.load(fallback, net, netlist, src)
		return ld.tree, ld.err
	}
}

// errHotLoadPanicked is what callers waiting on a load see when the
// loading caller panicked instead of returning.
var errHotLoadPanicked = errors.New("elmored: loading the net panicked")

// load parses a source that missed the cache and caches the tree.
func (c *hotTrees) load(fallback batch.TreeLoader, net, netlist string, src uint64) (*rctree.Tree, error) {
	tree, err := fallback(net, netlist)
	if err != nil {
		return nil, err
	}
	telemetry.C("serve.hot_tree_misses").Inc()
	fp := tree.Fingerprint()

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byFP[fp]; ok {
		// Another source already produced this exact tree: share the
		// entry, serve the canonical copy.
		e := el.Value.(*hotEntry)
		if _, indexed := c.bySrc[src]; !indexed {
			c.bySrc[src] = fp
			e.srcs = append(e.srcs, src)
		}
		c.lru.MoveToFront(el)
		return e.tree, nil
	}
	e := &hotEntry{fp: fp, tree: tree, srcs: []uint64{src}}
	c.bySrc[src] = fp
	c.byFP[fp] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		victim := back.Value.(*hotEntry)
		c.lru.Remove(back)
		delete(c.byFP, victim.fp)
		for _, s := range victim.srcs {
			delete(c.bySrc, s)
		}
		telemetry.C("serve.hot_tree_evictions").Inc()
	}
	return tree, nil
}

// Len reports the number of cached trees.
func (c *hotTrees) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
