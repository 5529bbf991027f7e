package rctree

// Compiled is a structure-of-arrays execution plan for a Tree: the
// nodes renumbered into breadth-first (level) order with all per-node
// data in contiguous slices. It is the layout every hot kernel in this
// repository runs on — the Tree itself stays the friendly, name-indexed
// construction API, while the Compiled form is what the traversals,
// moment recurrences, and transient solver iterate over.
//
// The BFS renumbering gives three properties at once:
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
//   - Contiguous levels: all nodes at depth d+1 occupy the index range
//     [LevelStart[d], LevelStart[d+1]), the roots being level 0, so a
//     per-level span of nodes is one index interval (moments.Incremental
//     tracks its dirty regions this way).
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
	// LevelStart has length L+1 for L depth levels; level l (nodes at
	// depth l+1, i.e. l resistors below a root's resistor) occupies
	// compiled indices [LevelStart[l], LevelStart[l+1]).
	LevelStart []int32
}

// N returns the node count.
func (c *Compiled) N() int { return len(c.Parent) }

// Levels returns the number of depth levels (the tree height).
func (c *Compiled) Levels() int { return len(c.LevelStart) - 1 }

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
		LevelStart: make([]int32, 1, 16),
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
	head := 0
	levelEnd := len(c.ToUser)
	for head < n {
		if head == levelEnd {
			panic("rctree: Compile: unreachable nodes (corrupt tree)")
		}
		for head < levelEnd {
			u := int(c.ToUser[head])
			for _, ch := range t.nodes[u].children {
				c.FromUser[ch] = int32(len(c.ToUser))
				c.ToUser = append(c.ToUser, int32(ch))
			}
			head++
		}
		c.LevelStart = append(c.LevelStart, int32(levelEnd))
		levelEnd = len(c.ToUser)
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
	rootCount := c.LevelStart[1]
	for i := range c.ChildStart {
		c.ChildStart[i] += rootCount
	}
	return c
}
