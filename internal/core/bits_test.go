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

// TestOutputBitsPinned pins, bit for bit, every output that does not
// depend on how μ2 and μ3 are represented: T_P and, per node, T_D,
// T_R, SinglePole, PRHTmin/PRHTmax, the downstream admittances, a
// fixed-step transient waveform and the fingerprint. Each tree is
// pinned as built and as a parsed deck (written with netlist.Format
// and read back), so a change of node order or summation order cannot
// slip through as roundoff. The hashes were recorded with the raw-moment
// kernel, before the cumulant kernel replaced it; the cumulant
// statistics have their own pin, TestCumulantBitsPinned.
func TestOutputBitsPinned(t *testing.T) {
	parsed := map[string]uint64{
		"chain":    0x628fb1c1ed962188,
		"balanced": 0xb069b35391e7c46e,
		"random":   0x6df85e12d563f3a8,
		"htree":    0xe1a69a2225da0dbe,
	}
	built := map[string]uint64{
		"chain":    0x628fb1c1ed962188,
		"balanced": 0x04a6a25d9ada8991,
		"random":   0x78f3772c6039b677,
		"htree":    0x32be48b1898a9739,
	}
	for name, tree := range bitsTrees() {
		d, err := netlist.ParseString(netlist.Format(tree, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := invariantBits(t, d.Tree); got != parsed[name] {
			t.Errorf("%s parsed: outputs hash to %#x, want %#x", name, got, parsed[name])
		}
		if got := invariantBits(t, tree); got != built[name] {
			t.Errorf("%s built: outputs hash to %#x, want %#x", name, got, built[name])
		}
	}
}

// invariantBits hashes the representation-independent outputs of a
// tree.
func invariantBits(t *testing.T, tree *rctree.Tree) uint64 {
	t.Helper()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	ms := a.Moments()
	td := moments.ElmoreDelays(tree)
	h := newFloatHash()
	h.add(a.TP, ms.TP())
	for i, b := range a.Bounds {
		h.h.Write([]byte(b.Node))
		h.add(b.Elmore, b.SinglePole, b.PRHTmin, b.PRHTmax, td[i], ms.Elmore(i), ms.TR(i))
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

// TestCumulantBitsPinned pins, bit for bit, the outputs that come from
// μ2 and μ3: per node μ2, μ3, Sigma, Skewness, Lower and RiseTime, on
// each tree as built and as a parsed deck. The hashes were recorded
// when the cumulant kernel replaced the raw-moment differences, which
// moved these values by up to ~5e-13 relative; FuzzCumulantOracle and
// TestCumulantOracleDeepChains in package moments bound the kernel's
// error against a 400-bit oracle.
func TestCumulantBitsPinned(t *testing.T) {
	parsed := map[string]uint64{
		"chain":    0xc6d69c9d5b71e3d2,
		"balanced": 0x06417c5622143557,
		"random":   0xb4731a395419941c,
		"htree":    0xbedd698dca9f8318,
	}
	built := map[string]uint64{
		"chain":    0xc6d69c9d5b71e3d2,
		"balanced": 0x2792350dfd64646b,
		"random":   0xce558701b7b381f1,
		"htree":    0xb75cf47e8c0b5e80,
	}
	for name, tree := range bitsTrees() {
		d, err := netlist.ParseString(netlist.Format(tree, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := cumulantBits(t, d.Tree); got != parsed[name] {
			t.Errorf("%s parsed: cumulant outputs hash to %#x, want %#x", name, got, parsed[name])
		}
		if got := cumulantBits(t, tree); got != built[name] {
			t.Errorf("%s built: cumulant outputs hash to %#x, want %#x", name, got, built[name])
		}
	}
}

// cumulantBits hashes the μ2- and μ3-derived Bounds fields of a tree.
func cumulantBits(t *testing.T, tree *rctree.Tree) uint64 {
	t.Helper()
	a, err := Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	h := newFloatHash()
	for _, b := range a.Bounds {
		h.add(b.Mu2, b.Mu3, b.Sigma, b.Skewness, b.Lower, b.RiseTime)
	}
	return h.sum()
}
