package moments

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"elmore/internal/rctree"
)

// oraclePrec is the working precision of the test oracle, in bits.
const oraclePrec = 400

// oracleRelTol bounds the relative error of T_D, μ2, μ3, T_R and T_P
// against the oracle, with 4x headroom over the worst measured:
// 1.48e-13, μ3 on the uniform 5000-chain of TestCumulantOracleDeepChains
// (μ2 9.9e-14, T_R 5.4e-14, T_D 3.6e-14 there; 1.6e-14 at most on the
// log-uniform chain). On 3000 random forests of at most 64 nodes in the
// fuzz target's value ranges the worst was 1.3e-15. The error grows with
// depth because each statistic is a sum along the root path. T_P, one
// index-order sum of R_ii C_i, stays far below: 0 on the uniform chain,
// 1.45e-15 on the log-uniform chain, 5.9e-16 over 300 random 64-node
// trees and 5.5e-15 on a 100k-node random tree.
const oracleRelTol = 6e-13

// oracleStats is the test oracle: T_D, μ2, μ3 and T_R at every node,
// from the raw-moment recurrence m_q(i) = m_q(p) − r_i·Σ_{k ⊆ i} C_k
// m_{q−1}(k) (the recurrence awe uses) carried out in 400-bit
// math/big arithmetic from the exact float64 element values, with the
// central moments formed at that precision (μ2 = 2m2 − m1²,
// μ3 = −6m3 + 6m1m2 − 2m1³; their cancellation costs far fewer than
// the 300-odd spare bits), T_R = Σ_k R_ki² C_k / R_ii by the S
// recurrence of step, and T_P = Σ_k R_kk C_k. Results are rounded to
// float64 once.
func oracleStats(t *rctree.Tree) (td, mu2, mu3, tr []float64, tp float64) {
	n := t.N()
	a := t.Arrays()
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(oraclePrec).SetFloat64(x) }
	z := func() *big.Float { return new(big.Float).SetPrec(oraclePrec) }
	m := make([][]*big.Float, 4)
	for q := range m {
		m[q] = make([]*big.Float, n)
		for i := range m[q] {
			if q == 0 {
				m[q][i] = f(1)
			} else {
				m[q][i] = z()
			}
		}
	}
	w := make([]*big.Float, n)
	for q := 1; q <= 3; q++ {
		for i := n - 1; i >= 0; i-- {
			w[i] = z().Mul(f(a.C[i]), m[q-1][i])
			for _, ch := range a.Kids[a.KidStart[i]:a.KidStart[i+1]] {
				w[i].Add(w[i], w[ch])
			}
		}
		for i := 0; i < n; i++ {
			v := z().Neg(z().Mul(f(a.R[i]), w[i]))
			if p := a.Parent[i]; p != rctree.Source {
				v.Add(v, m[q][p])
			}
			m[q][i] = v
		}
	}
	// Downstream capacitances, for the T_R recurrence.
	down := make([]*big.Float, n)
	for i := n - 1; i >= 0; i-- {
		down[i] = f(a.C[i])
		for _, ch := range a.Kids[a.KidStart[i]:a.KidStart[i+1]] {
			down[i].Add(down[i], down[ch])
		}
	}
	rkk, s := make([]*big.Float, n), make([]*big.Float, n)
	sumP := z()
	td, mu2, mu3, tr = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		rp, sp := z(), z()
		if p := a.Parent[i]; p != rctree.Source {
			rp, sp = rkk[p], s[p]
		}
		rkk[i] = z().Add(f(a.R[i]), rp)
		inc := z().Mul(f(a.R[i]), z().Add(rkk[i], rp))
		s[i] = z().Add(sp, inc.Mul(inc, down[i]))
		sumP.Add(sumP, z().Mul(rkk[i], f(a.C[i])))

		m1, m2, m3 := m[1][i], m[2][i], m[3][i]
		v2 := z().Sub(z().Mul(f(2), m2), z().Mul(m1, m1))
		v3 := z().Mul(f(-6), m3)
		v3.Add(v3, z().Mul(f(6), z().Mul(m1, m2)))
		v3.Sub(v3, z().Mul(f(2), z().Mul(m1, z().Mul(m1, m1))))
		td[i], _ = z().Neg(m1).Float64()
		mu2[i], _ = v2.Float64()
		mu3[i], _ = v3.Float64()
		tr[i], _ = z().Quo(s[i], rkk[i]).Float64()
	}
	tp, _ = sumP.Float64()
	return td, mu2, mu3, tr, tp
}

// checkOracle asserts T_D, μ2, μ3 and T_R at every node, and T_P, all
// read from Compute's set, within oracleRelTol of the oracle, and
// μ2 ≥ 0, μ3 ≥ 0 exactly. It returns the worst relative error seen.
func checkOracle(t *testing.T, label string, tree *rctree.Tree) float64 {
	t.Helper()
	s, err := Compute(tree)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	td, mu2, mu3, tr, tp := oracleStats(tree)
	worst := 0.0
	check := func(node int, name string, got, want float64) {
		t.Helper()
		rel := math.Abs(got-want) / math.Abs(want)
		if got == want {
			rel = 0
		}
		if !(rel <= oracleRelTol) {
			where := fmt.Sprintf("node %d", node)
			if node < 0 {
				where = "tree"
			}
			t.Fatalf("%s: %s: %s = %v, oracle %v (relative error %.3g > %g)",
				label, where, name, got, want, rel, oracleRelTol)
		}
		worst = max(worst, rel)
	}
	for i := 0; i < tree.N(); i++ {
		if !(s.Mu2(i) >= 0) || !(s.Mu3(i) >= 0) {
			t.Fatalf("%s: node %d: mu2 = %v, mu3 = %v; Lemma 2 wants both >= 0 exactly", label, i, s.Mu2(i), s.Mu3(i))
		}
		check(i, "T_D", s.Elmore(i), td[i])
		check(i, "mu2", s.Mu2(i), mu2[i])
		check(i, "mu3", s.Mu3(i), mu3[i])
		check(i, "T_R", s.TR(i), tr[i])
	}
	check(-1, "T_P", s.TP(), tp)
	return worst
}

// TestCumulantOracleDeepChains holds the oracle bound on the deepest
// topology: chains 5000 deep, uniform and with R and C log-uniform
// over eight decades each.
func TestCumulantOracleDeepChains(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(5))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for _, tc := range []struct {
		name string
		r, c func() float64
	}{
		{"uniform", func() float64 { return 50 }, func() float64 { return 2e-15 }},
		{"log-uniform", func() float64 { return logU(1e-2, 1e6) }, func() float64 { return logU(1e-18, 1e-10) }},
	} {
		b := rctree.NewBuilder()
		prev := b.MustRoot("n0", tc.r(), tc.c())
		for i := 1; i < n; i++ {
			prev = b.MustAttach(prev, fmt.Sprintf("n%d", i), tc.r(), tc.c())
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		worst := checkOracle(t, tc.name, tree)
		t.Logf("%s %d-chain: worst relative error %.3g", tc.name, n, worst)
	}
}

// FuzzCumulantOracle maps the input to a forest of at most 64 nodes
// with log-uniform R in [0.01 Ω, 1 MΩ] and C in [1e-18, 1e-10] F and
// checks T_D, μ2, μ3 and T_R at every node against the 400-bit oracle,
// and μ2 ≥ 0, μ3 ≥ 0 exactly.
//
// Input layout: one byte for the node count, then three bytes per node
// (parent, R, C). A parent byte of 0 makes a root, and p > 0 attaches
// node i to node (p-1) mod i; missing bytes read as 0.
func FuzzCumulantOracle(f *testing.F) {
	seed := func(parents []int) []byte {
		data := []byte{byte(len(parents) - 1)}
		for i, p := range parents {
			data = append(data, byte(p+1), byte(37*i+90), byte(53*i+1))
		}
		return data
	}
	chain := make([]int, 64)
	for i := range chain {
		chain[i] = i - 1
	}
	f.Add(seed(chain))
	f.Add(seed([]int{-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(seed([]int{-1, 0, 1, -1, 3, 3, 4, -1, 7, 8, 8, 7}))
	f.Add([]byte{63, 0, 255, 0, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		val := func(lo float64, b byte) float64 { return lo * math.Pow(1e8, float64(b)/255) }
		n := 1 + int(next())%64
		b := rctree.NewBuilder()
		for i := 0; i < n; i++ {
			p, r, c := next(), val(1e-2, next()), val(1e-18, next())
			name := fmt.Sprintf("n%d", i)
			if i == 0 || p == 0 {
				b.MustRoot(name, r, c)
			} else {
				b.MustAttach(int(p-1)%i, name, r, c)
			}
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, "forest", tree)
	})
}
