// Package awe implements asymptotic waveform evaluation (Pillage &
// Rohrer 1990): fitting a q-pole reduced-order model to the first 2q
// transfer-function moments of an RC tree node. The paper positions AWE
// as the higher-accuracy alternative once more moments are available
// ("moment matching techniques ... are preferable when higher order
// moments are available"); this package provides that comparison point
// for the benchmark harness, including the classical two-pole model.
package awe

import (
	"fmt"
	"math"

	"elmore/internal/linalg"
	"elmore/internal/poly"
	"elmore/internal/telemetry"
)

// Approx is a stable q-pole approximation of a node transfer function:
//
//	H(s) ≈ sum_j Residues[j] / (s + Poles[j]),  Poles[j] > 0,
//
// normalized so the DC gain sum_j Residues[j]/Poles[j] equals the
// matched m0 (1 for RC tree nodes).
type Approx struct {
	Poles    []float64 // > 0, ascending
	Residues []float64
}

// Order returns the number of poles.
func (a *Approx) Order() int { return len(a.Poles) }

// FitNode fits a q-pole model at node i from a moment set with order >=
// 2q. It returns an error if the Pade denominator produces unstable
// (non-positive or complex) poles — the classical AWE instability; use
// FitStable to fall back to lower orders automatically.
func FitNode(ms *Moments, i, q int) (*Approx, error) {
	if q < 1 {
		return nil, fmt.Errorf("awe: order must be >= 1, got %d", q)
	}
	if ms.Order() < 2*q {
		return nil, fmt.Errorf("awe: need %d moments for a %d-pole fit, have %d", 2*q, q, ms.Order())
	}
	// c_k = (-1)^k m_k = sum_j (k_j / p_j) (1/p_j)^k: a power-moment
	// sequence in x_j = 1/p_j with weights w_j = k_j x_j.
	c := make([]float64, 2*q)
	for k := 0; k < 2*q; k++ {
		v := ms.M(k, i)
		if k%2 == 1 {
			v = -v
		}
		c[k] = v
	}
	a, err := fit(c, q)
	if err != nil {
		telemetry.C("awe.unstable_fits").Inc()
		return nil, err
	}
	telemetry.C("awe.fits").Inc()
	return a, nil
}

// fit solves the Pade problem for the shifted moment sequence c.
func fit(c []float64, q int) (*Approx, error) {
	// Characteristic polynomial x^q + a_{q-1} x^{q-1} + ... + a_0 of the
	// x_j: solve the Hankel system sum_l a_l c_{n+l} = -c_{n+q}.
	h := linalg.NewMatrix(q, q)
	rhs := make([]float64, q)
	for n := 0; n < q; n++ {
		for l := 0; l < q; l++ {
			h.Set(n, l, c[n+l])
		}
		rhs[n] = -c[n+q]
	}
	a, err := linalg.SolveLU(h, rhs)
	if err != nil {
		return nil, fmt.Errorf("awe: singular Hankel system (moments too degenerate for order %d): %w", q, err)
	}
	coeffs := append(append([]float64(nil), a...), 1)
	roots, err := poly.New(coeffs...).RealRoots()
	if err != nil {
		return nil, fmt.Errorf("awe: unstable order-%d fit: %w", q, err)
	}
	polesRev := make([]float64, 0, q)
	for _, x := range roots {
		if x <= 0 {
			return nil, fmt.Errorf("awe: unstable order-%d fit: nonpositive time constant %g", q, x)
		}
		polesRev = append(polesRev, 1/x)
	}
	// roots ascending in x => poles descending; reverse to ascending.
	poles := make([]float64, q)
	for j := range polesRev {
		poles[q-1-j] = polesRev[j]
	}
	// Residues from the Vandermonde system sum_j w_j x_j^n = c_n,
	// n = 0..q-1, with w_j = k_j / p_j.
	vm := linalg.NewMatrix(q, q)
	for n := 0; n < q; n++ {
		for j := 0; j < q; j++ {
			vm.Set(n, j, math.Pow(1/poles[j], float64(n)))
		}
	}
	w, err := linalg.SolveLU(vm, c[:q])
	if err != nil {
		return nil, fmt.Errorf("awe: degenerate pole set at order %d: %w", q, err)
	}
	res := make([]float64, q)
	for j := range w {
		res[j] = w[j] * poles[j]
	}
	ap := &Approx{Poles: poles, Residues: res}
	// Self-check: an ill-conditioned Hankel/Vandermonde pair (nearly
	// coincident poles) can pass root-finding yet reproduce the matched
	// moments poorly. Reject such fits so FitStable falls back.
	for k := 0; k < 2*q; k++ {
		got := ap.Moment(k)
		want := c[k]
		if k%2 == 1 {
			want = -want
		}
		if math.Abs(got-want) > 1e-7*(math.Abs(got)+math.Abs(want)+1e-300) {
			return nil, fmt.Errorf("awe: order-%d fit is ill-conditioned (moment %d off by %g)",
				q, k, got-want)
		}
	}
	return ap, nil
}

// FitStable fits the highest stable order <= q, trying q, q-1, ..., 1.
// Order 1 (the dominant-pole / Elmore model) always succeeds for an RC
// tree node, so FitStable only fails on invalid inputs.
func FitStable(ms *Moments, i, q int) (*Approx, error) {
	if q < 1 {
		return nil, fmt.Errorf("awe: order must be >= 1, got %d", q)
	}
	var lastErr error
	for o := q; o >= 1; o-- {
		if ms.Order() < 2*o {
			continue
		}
		a, err := FitNode(ms, i, o)
		if err == nil {
			return a, nil
		}
		lastErr = err
		telemetry.C("awe.fallbacks").Inc()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("awe: moment set order %d too low for any fit", ms.Order())
	}
	return nil, lastErr
}

// SinglePole returns the paper's dominant-time-constant model (eq. 14):
// one pole at 1/T_D, unit DC gain. Its 50% delay is ln(2)*T_D.
func SinglePole(elmoreDelay float64) (*Approx, error) {
	if elmoreDelay <= 0 {
		return nil, fmt.Errorf("awe: Elmore delay must be positive, got %g", elmoreDelay)
	}
	p := 1 / elmoreDelay
	return &Approx{Poles: []float64{p}, Residues: []float64{p}}, nil
}

// DCGain returns sum_j k_j / p_j — should be 1 for RC tree fits.
func (a *Approx) DCGain() float64 {
	var g float64
	for j := range a.Poles {
		g += a.Residues[j] / a.Poles[j]
	}
	return g
}

// Moment returns the coefficient moment m_k reproduced by the model:
// m_k = (-1)^k sum_j k_j / p_j^{k+1}.
func (a *Approx) Moment(k int) float64 {
	var s float64
	for j := range a.Poles {
		s += a.Residues[j] / math.Pow(a.Poles[j], float64(k+1))
	}
	if k%2 == 1 {
		s = -s
	}
	return s
}

// VStep evaluates the model's unit step response at time t.
func (a *Approx) VStep(t float64) float64 {
	if t <= 0 {
		return 0
	}
	v := a.DCGain()
	for j := range a.Poles {
		v -= a.Residues[j] / a.Poles[j] * math.Exp(-a.Poles[j]*t)
	}
	return v
}

// Impulse evaluates the model's impulse response at time t.
func (a *Approx) Impulse(t float64) float64 {
	if t < 0 {
		return 0
	}
	var h float64
	for j := range a.Poles {
		h += a.Residues[j] * math.Exp(-a.Poles[j]*t)
	}
	return h
}

// CrossStep returns the time the model's step response first reaches
// the level (level in (0, DCGain)).
func (a *Approx) CrossStep(level float64) (float64, error) {
	gain := a.DCGain()
	if level <= 0 || level >= gain {
		return 0, fmt.Errorf("awe: level %v outside (0, %v)", level, gain)
	}
	f := func(t float64) float64 { return a.VStep(t) - level }
	hi := 1 / a.Poles[0]
	found := false
	for k := 0; k < 200; k++ {
		if f(hi) > 0 {
			found = true
			break
		}
		hi *= 2
	}
	if !found {
		return 0, fmt.Errorf("awe: response never reaches %v", level)
	}
	lo := 0.0
	for k := 0; k < 200; k++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// Delay50 returns the model's 50% step delay.
func (a *Approx) Delay50() (float64, error) { return a.CrossStep(0.5 * a.DCGain()) }
