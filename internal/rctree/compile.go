package rctree

// Compiled is a structure-of-arrays execution plan for a Tree: the
// nodes renumbered into breadth-first (level) order with all per-node
// data in contiguous slices. It is the layout every hot kernel in this
// repository runs on — the Tree itself stays the friendly, name-indexed
// construction API, while the Compiled form is what the traversals,
// moment recurrences, and transient solver iterate over.
//
// The BFS renumbering gives two properties at once:
//
//   - Topological order: Parent[i] < i for every non-root node, so an
//     ascending sweep 0..N-1 is a valid pre-order (parents before
//     children) and a descending sweep N-1..0 is a valid post-order —
//     no permutation indirection in either direction.
//   - Contiguous children: when a node is dequeued its children are
//     enqueued together, so the children of node i are exactly the
//     index range [ChildStart[i], ChildStart[i+1]) — child iteration
//     is a range loop over consecutive integers, and "gather from
//     children" reads consecutive memory.
//
// A Compiled plan snapshots the element values R and C. Like a cached
// Fingerprint, it is invalidated by SetR/SetC: Compile tracks the
// tree's modification generation and transparently rebuilds when the
// snapshot is stale, so callers may simply call Compile(t) again (or
// hold the plan only while they are not mutating the tree).
//
// All exported slices are read-only: kernels must never write to them.
type Compiled struct {
	gen uint64 // Tree modification generation this plan snapshots

	// Parent[i] is the compiled index of node i's parent, or Source.
	Parent []int32
	// R[i] and C[i] are the element values, in compiled order.
	R, C []float64
	// ChildStart has length N+1; the children of compiled node i are
	// the compiled indices ChildStart[i] <= ch < ChildStart[i+1].
	// (BFS numbering makes every child block contiguous; the blocks
	// are concatenated in parent order starting at the first non-root
	// node, so no separate child-index array is needed.)
	ChildStart []int32
	// ToUser[i] is the Tree (user) index of compiled node i; FromUser
	// is the inverse permutation.
	ToUser, FromUser []int32
}

// N returns the node count.
func (c *Compiled) N() int { return len(c.Parent) }

// Compile returns the structure-of-arrays execution plan for t,
// building it on first use and caching it on the tree. The cached plan
// is reused until SetR/SetC bumps the tree's modification generation,
// after which the next Compile call rebuilds it. Compile is safe for
// concurrent use (concurrent first calls may both build; one result
// wins the cache, both are correct).
func Compile(t *Tree) *Compiled {
	gen := t.gen.Load()
	if c := t.compiled.Load(); c != nil && c.gen == gen {
		return c
	}
	c := compile(t, gen)
	t.compiled.Store(c)
	return c
}

func compile(t *Tree, gen uint64) *Compiled {
	n := len(t.nodes)
	c := &Compiled{
		gen:        gen,
		Parent:     make([]int32, n),
		R:          make([]float64, n),
		C:          make([]float64, n),
		ChildStart: make([]int32, n+1),
		ToUser:     make([]int32, 0, n),
		FromUser:   make([]int32, n),
	}
	// BFS from the roots: ToUser doubles as the queue (nodes are
	// appended in dequeue-discovery order, which is exactly the
	// compiled numbering).
	for u := range t.nodes {
		if t.nodes[u].parent == Source {
			c.FromUser[u] = int32(len(c.ToUser))
			c.ToUser = append(c.ToUser, int32(u))
		}
	}
	rootCount := int32(len(c.ToUser))
	for head := 0; head < n; head++ {
		if head == len(c.ToUser) {
			panic("rctree: Compile: unreachable nodes (corrupt tree)")
		}
		for _, ch := range t.nodes[c.ToUser[head]].children {
			c.FromUser[ch] = int32(len(c.ToUser))
			c.ToUser = append(c.ToUser, int32(ch))
		}
	}
	for i := 0; i < n; i++ {
		u := int(c.ToUser[i])
		nd := &t.nodes[u]
		c.R[i] = nd.r
		c.C[i] = nd.c
		if nd.parent == Source {
			c.Parent[i] = Source
		} else {
			c.Parent[i] = c.FromUser[nd.parent]
		}
		c.ChildStart[i+1] = c.ChildStart[i] + int32(len(nd.children))
	}
	// ChildStart currently holds cumulative child counts; shift by the
	// root count so blocks address compiled indices directly: the
	// first child block begins right after the roots.
	for i := range c.ChildStart {
		c.ChildStart[i] += rootCount
	}
	return c
}
