package main

import (
	"math"
	"math/rand"
	"strconv"
)

// rcNet is one generated RC tree, held in the generator's own arrays so
// the oracles never depend on the program's parser. Node i is named
// "n<i>"; parent[i] < i, and parent[0] == -1 marks the root, which
// hangs off the driven input node through r[0].
type rcNet struct {
	name   string
	parent []int32
	r, c   []float64
	leaves []int32 // nodes without children, ascending
}

func (n *rcNet) size() int { return len(n.parent) }

// genNet draws an n-node tree. The first spine nodes form a chain;
// after them, with probability chain a new node extends the previous
// one, otherwise it attaches to a uniformly drawn earlier node. With
// chain 0.5 and no spine the tree is bushy (depth ~60 at 100k nodes); a
// spine of a few thousand nodes makes it deep. Values are log-uniform over
// 10..1000 ohm and 1f..1p, rounded to five significant digits so the
// rendered deck parses back to exactly the same float64 values.
func genNet(rng *rand.Rand, name string, n int, chain float64, spine int) *rcNet {
	nt := &rcNet{
		name:   name,
		parent: make([]int32, n),
		r:      make([]float64, n),
		c:      make([]float64, n),
	}
	hasChild := make([]bool, n)
	for i := 0; i < n; i++ {
		p := int32(i - 1)
		if i >= spine && i > 0 && rng.Float64() >= chain {
			p = int32(rng.Intn(i))
		}
		nt.parent[i] = p
		if p >= 0 {
			hasChild[p] = true
		}
		nt.r[i] = logUniform(rng, 10, 1000)
		nt.c[i] = logUniform(rng, 1e-15, 1e-12)
	}
	for i, has := range hasChild {
		if !has {
			nt.leaves = append(nt.leaves, int32(i))
		}
	}
	return nt
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 5, 64), 64)
	return v
}

// appendNodeName appends "n<i>".
func appendNodeName(b []byte, i int32) []byte {
	return strconv.AppendInt(append(b, 'n'), int64(i), 10)
}

// nodeIndex inverts appendNodeName; ok is false for any other name.
func nodeIndex(name string) (int32, bool) {
	if len(name) < 2 || name[0] != 'n' {
		return 0, false
	}
	v, err := strconv.ParseInt(name[1:], 10, 32)
	if err != nil || v < 0 {
		return 0, false
	}
	return int32(v), true
}

// deck renders the net as a SPICE deck the netlist package reads.
func (n *rcNet) deck() []byte {
	b := make([]byte, 0, 40*n.size()+64)
	b = append(b, "* "...)
	b = append(b, n.name...)
	b = append(b, "\nVin in 0 1\n"...)
	for i := range n.parent {
		b = append(b, 'R')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		if p := n.parent[i]; p < 0 {
			b = append(b, "in"...)
		} else {
			b = appendNodeName(b, p)
		}
		b = append(b, ' ')
		b = appendNodeName(b, int32(i))
		b = append(b, ' ')
		b = strconv.AppendFloat(b, n.r[i], 'g', -1, 64)
		b = append(b, "\nC"...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = appendNodeName(b, int32(i))
		b = append(b, " 0 "...)
		b = strconv.AppendFloat(b, n.c[i], 'g', -1, 64)
		b = append(b, '\n')
	}
	return append(b, ".end\n"...)
}

// sinkNames returns the names of the given nodes.
func sinkNames(nodes []int32) []string {
	out := make([]string, len(nodes))
	for k, i := range nodes {
		out[k] = string(appendNodeName(nil, i))
	}
	return out
}

// everyKth returns up to max nodes of list, evenly spaced.
func everyKth(list []int32, max int) []int32 {
	if len(list) <= max {
		return list
	}
	out := make([]int32, 0, max)
	for k := 0; k < max; k++ {
		out = append(out, list[k*len(list)/max])
	}
	return out
}

// zipfDraws returns count indices in [0, pool) drawn Zipf-distributed
// (exponent s) and then mapped through a seeded permutation, so the hot
// nets are spread over the pool rather than being its first entries.
func zipfDraws(seed int64, pool, count int, s float64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(pool)
	z := rand.NewZipf(rng, s, 1, uint64(pool-1))
	out := make([]int, count)
	for k := range out {
		out[k] = perm[z.Uint64()]
	}
	return out
}
