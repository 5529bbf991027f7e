package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/sim"
	"elmore/internal/topo"
)

// bitsTrees are the trees whose outputs TestOutputBitsPinned pins, as
// the generators build them: all but the chain are numbered depth
// first, not level by level.
func bitsTrees() map[string]*rctree.Tree {
	return map[string]*rctree.Tree{
		"chain":    topo.Chain(200, 50, 20e-15),
		"balanced": topo.Balanced(5, 3, 80, 15e-15),
		"random":   topo.Random(17, topo.RandomOptions{N: 400}),
		"htree":    topo.HTree(5, 100, 200e-15, 10e-15),
	}
}

// floatHash is FNV-1a over the bit patterns of a float stream.
type floatHash struct{ h hash.Hash64 }

func newFloatHash() floatHash { return floatHash{fnv.New64a()} }

func (f floatHash) add(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		f.h.Write(b[:])
	}
}

func (f floatHash) sum() uint64 { return f.h.Sum64() }

// TestOutputBitsPinned pins every output of the analysis pipeline, bit
// for bit, to hashes recorded before the kernels moved onto the tree's
// own arrays, so a change of node order or summation order cannot slip
// through as roundoff.
//
// Parsed decks (each tree written with netlist.Format and read back)
// pin everything: every Bounds field and T_P of core.Analyze, the
// downstream admittances, a fixed-step transient waveform at every
// node, and the fingerprint. The same trees as built pin the per-node
// values, m1..m3, T_D, T_R and the admittances; their T_P, a whole-tree
// sum, depends on the order nodes are summed in and is not pinned.
func TestOutputBitsPinned(t *testing.T) {
	parsed := map[string]uint64{
		"chain":    0x674ed66714a0bd64,
		"balanced": 0xabecfc25cbf18b99,
		"random":   0xec441d256b36730f,
		"htree":    0x26d42c3494e54fac,
	}
	built := map[string]uint64{
		"chain":    0xc3fbeb1f5fb95e5c,
		"balanced": 0x8c60b83c06623b63,
		"random":   0x0542eaca20ffd9c7,
		"htree":    0x08bb093a5968ce88,
	}
	for name, tree := range bitsTrees() {
		d, err := netlist.ParseString(netlist.Format(tree, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := parsedBits(t, d.Tree); got != parsed[name] {
			t.Errorf("%s parsed: outputs hash to %#x, want %#x", name, got, parsed[name])
		}
		if got := builtBits(t, tree); got != built[name] {
			t.Errorf("%s built: per-node outputs hash to %#x, want %#x", name, got, built[name])
		}
	}
}

// parsedBits hashes every output of a parsed deck.
func parsedBits(t *testing.T, tree *rctree.Tree) uint64 {
	t.Helper()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	h := newFloatHash()
	h.add(a.TP)
	for _, b := range a.Bounds {
		h.h.Write([]byte(b.Node))
		h.add(b.Elmore, b.Sigma, b.Mu2, b.Mu3, b.Skewness,
			b.Lower, b.SinglePole, b.PRHTmin, b.PRHTmax, b.RiseTime)
	}
	for _, y := range moments.DownstreamAdmittances(tree) {
		h.add(y.Y1, y.Y2, y.Y3)
	}
	maxTD := 0.0
	for _, b := range a.Bounds {
		maxTD = max(maxTD, b.Elmore)
	}
	res, err := sim.Run(tree, sim.Options{TEnd: 3 * maxTD, DT: maxTD / 50})
	if err != nil {
		t.Fatal(err)
	}
	h.add(res.Times...)
	for i := 0; i < tree.N(); i++ {
		v, err := res.Voltages(i)
		if err != nil {
			t.Fatal(err)
		}
		h.add(v...)
	}
	h.add(math.Float64frombits(tree.Fingerprint()))
	return h.sum()
}

// builtBits hashes the per-node outputs of a tree as built.
func builtBits(t *testing.T, tree *rctree.Tree) uint64 {
	t.Helper()
	ms, err := moments.Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	prh := moments.ComputePRH(tree)
	td := moments.ElmoreDelays(tree)
	y := moments.DownstreamAdmittances(tree)
	h := newFloatHash()
	for i := 0; i < tree.N(); i++ {
		h.add(ms.M(1, i), ms.M(2, i), ms.M(3, i), td[i], prh.TD[i], prh.TR(i), y[i].Y1, y[i].Y2, y[i].Y3)
	}
	return h.sum()
}
