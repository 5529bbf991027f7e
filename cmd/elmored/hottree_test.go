package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"elmore/internal/rctree"
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
		c := newHotTrees(4)
		load := c.loader(func(net, netlist string) (*rctree.Tree, error) {
			calls.Add(1)
			<-release
			if fail {
				return nil, errParse
			}
			return want, nil
		})
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
