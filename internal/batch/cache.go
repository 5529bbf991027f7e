package batch

import (
	"fmt"
	"sync"

	"elmore/internal/moments"
	"elmore/internal/rctree"
)

// Cache is a moment-set cache keyed by tree fingerprint
// (rctree.Tree.Fingerprint): a circuit's set is computed once and
// handed to every later call on a tree with the same fingerprint. As a
// cheap collision guard, a hit whose set disagrees with the requesting
// tree's node count is reported as an error rather than returned. The
// zero value is ready to use, and a Cache is safe for concurrent use.
//
// Deprecated: kept while perfbench's replay calls it. The engine keeps
// a tree's moment set in the tree's TreeCache entry instead.
type Cache struct {
	mu sync.Mutex
	m  map[uint64]*moments.Set
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{}
}

// Moments returns the moment set for the circuit t describes, computing
// it on first use. hit reports whether this call reused a set an
// earlier call computed. A moments.Set serves every order from 1 to 3
// (T_D, μ2 and μ3), so any such order gets the one cached set; a
// higher order is an error.
func (c *Cache) Moments(t *rctree.Tree, order int) (*moments.Set, bool, error) {
	if order < 1 || order > 3 {
		return nil, false, fmt.Errorf("batch: moment order %d outside [1,3]", order)
	}
	key := t.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, hit := c.m[key]
	if !hit {
		var err error
		if ms, err = moments.Compute(t); err != nil {
			return nil, false, err
		}
		if c.m == nil {
			c.m = make(map[uint64]*moments.Set)
		}
		c.m[key] = ms
	}
	if ms.Tree().N() != t.N() {
		return nil, hit, fmt.Errorf("batch: fingerprint collision: cached set has %d nodes, tree has %d", ms.Tree().N(), t.N())
	}
	return ms, hit, nil
}
