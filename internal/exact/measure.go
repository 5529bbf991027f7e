package exact

import (
	"fmt"

	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/waveform"
)

// maxBracketDoublings bounds the exponential search for an upper
// bracket; 200 doublings from any sane starting point covers the whole
// float64 range.
const maxBracketDoublings = 200

// CrossStep returns the exact time at which the unit step response at
// node i crosses the given level in (0, 1). RC tree step responses are
// monotone (Penfield-Rubinstein), so the crossing is unique.
func (s *System) CrossStep(i int, level float64) (float64, error) {
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("exact: crossing level must be in (0,1), got %v", level)
	}
	f := func(t float64) float64 { return s.VStep(i, t) - level }
	hi := s.SlowestTimeConstant()
	ok := false
	for k := 0; k < maxBracketDoublings; k++ {
		if f(hi) > 0 {
			ok = true
			break
		}
		hi *= 2
	}
	if !ok {
		return 0, fmt.Errorf("exact: step response at node %d never reaches level %v", i, level)
	}
	return bisect(f, 0, hi), nil
}

// Delay50Step returns the exact 50% step-response delay at node i — the
// median of the impulse response, the quantity the Elmore delay bounds.
func (s *System) Delay50Step(i int) (float64, error) {
	return s.CrossStep(i, 0.5)
}

// RiseTimeStep returns the lo-to-hi rise time of the step response
// (e.g. 0.1, 0.9 for the conventional 10-90% metric).
func (s *System) RiseTimeStep(i int, lo, hi float64) (float64, error) {
	if !(lo < hi) {
		return 0, fmt.Errorf("exact: rise-time levels must satisfy lo < hi")
	}
	tLo, err := s.CrossStep(i, lo)
	if err != nil {
		return 0, err
	}
	tHi, err := s.CrossStep(i, hi)
	if err != nil {
		return 0, err
	}
	return tHi - tLo, nil
}

// Mode returns the location of the first local maximum of the impulse
// response at node i. Under Lemma 1's unimodality this is the mode;
// for the rare extreme-element-spread trees where h(t) is multimodal
// (see TestLemma1UnimodalityCounterexample) it returns the first peak,
// which is what the mode <= median <= mean comparison uses. Only a node
// the source drives directly can peak at t = 0: deeper, h(0) = 0 and h
// rises first.
func (s *System) Mode(i int) float64 {
	if s.tree.Parent(i) == rctree.Source && s.ImpulseDeriv(i, 0) <= 0 {
		return 0 // h decays from t=0 (driving-point node)
	}
	// Find a time where h' < 0 by doubling.
	hi := s.SlowestTimeConstant() / float64(len(s.poles)+1)
	for k := 0; k < maxBracketDoublings; k++ {
		if s.ImpulseDeriv(i, hi) < 0 {
			break
		}
		hi *= 2
	}
	return bisect(func(t float64) float64 { return -s.ImpulseDeriv(i, t) }, 0, hi)
}

// bisect finds the root of the increasing-sign function f (f(lo) <= 0
// <= f(hi)) to near machine precision.
func bisect(f func(float64) float64, lo, hi float64) float64 {
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
	return 0.5 * (lo + hi)
}

// VPWL returns the exact response at node i to a monotone
// piecewise-linear input at time t: a superposition of shifted
// unit-slope ramp responses weighted by the segment slopes.
func (s *System) VPWL(i int, p *signal.PWL, t float64) float64 {
	pts := p.Points
	var out float64
	for k := 0; k+1 < len(pts); k++ {
		slope := (pts[k+1].V - pts[k].V) / (pts[k+1].T - pts[k].T)
		if slope == 0 {
			continue
		}
		out += slope * (s.StepIntegral(i, t-pts[k].T) - s.StepIntegral(i, t-pts[k+1].T))
	}
	return out
}

// CrossPWL returns the time at which the response to a PWL input
// crosses the given level in (0, 1). Monotone input and nonnegative
// impulse response make the output monotone, so the crossing is unique.
func (s *System) CrossPWL(i int, p *signal.PWL, level float64) (float64, error) {
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("exact: crossing level must be in (0,1), got %v", level)
	}
	f := func(t float64) float64 { return s.VPWL(i, p, t) - level }
	start := p.Points[0].T
	hi := p.Points[len(p.Points)-1].T + s.SlowestTimeConstant()
	ok := false
	for k := 0; k < maxBracketDoublings; k++ {
		if f(hi) > 0 {
			ok = true
			break
		}
		hi = start + 2*(hi-start)
	}
	if !ok {
		return 0, fmt.Errorf("exact: PWL response at node %d never reaches level %v", i, level)
	}
	return bisect(f, start, hi), nil
}

// Delay measures the 50% delay at node i for the given input signal:
// the time the output crosses 50% minus the time the input crosses 50%.
// Steps and saturated ramps are handled in closed form; other signals
// are converted to a PWL approximation with pwlSegments segments
// (DefaultPWLSegments if <= 0).
func (s *System) Delay(i int, sig signal.Signal, pwlSegments int) (float64, error) {
	return s.DelayAt(i, sig, 0.5, pwlSegments)
}

// DefaultPWLSegments is the PWL resolution used to approximate smooth
// (non-PWL) input signals.
const DefaultPWLSegments = 256

// DelayAt measures the delay at an arbitrary threshold level: output
// crossing time minus input crossing time.
func (s *System) DelayAt(i int, sig signal.Signal, level float64, pwlSegments int) (float64, error) {
	if _, isStep := sig.(signal.Step); isStep {
		t, err := s.CrossStep(i, level)
		return t, err
	}
	if e, isExp := sig.(signal.Exponential); isExp {
		// Exponential edges have a closed-form response; no PWL
		// approximation needed.
		return s.delayExp(i, e.Tau, level)
	}
	if pwlSegments <= 0 {
		pwlSegments = DefaultPWLSegments
	}
	p, err := signal.ToPWL(sig, pwlSegments)
	if err != nil {
		return 0, fmt.Errorf("exact: cannot drive node %d with %v: %w", i, sig, err)
	}
	out, err := s.CrossPWL(i, p, level)
	if err != nil {
		return 0, err
	}
	return out - p.Cross(level), nil
}

// StepWaveform samples the step response at node i on n+1 uniform
// points over [0, t1].
func (s *System) StepWaveform(i int, t1 float64, n int) (*waveform.Waveform, error) {
	return waveform.FromFunc(func(t float64) float64 { return s.VStep(i, t) }, 0, t1, n)
}

// ImpulseWaveform samples the impulse response at node i on n+1 uniform
// points over [0, t1].
func (s *System) ImpulseWaveform(i int, t1 float64, n int) (*waveform.Waveform, error) {
	return waveform.FromFunc(func(t float64) float64 { return s.Impulse(i, t) }, 0, t1, n)
}

// PWLWaveform samples the response to a PWL input at node i on n+1
// uniform points over [0, t1].
func (s *System) PWLWaveform(i int, p *signal.PWL, t1 float64, n int) (*waveform.Waveform, error) {
	return waveform.FromFunc(func(t float64) float64 { return s.VPWL(i, p, t) }, 0, t1, n)
}

// Horizon returns a sampling horizon that comfortably contains the
// interesting part of every response: the max Elmore mean plus several
// slowest time constants, plus the input rise time.
func (s *System) Horizon(extraRise float64) float64 {
	maxMean := 0.0
	for i := 0; i < s.tree.N(); i++ {
		if m := s.Mean(i); m > maxMean {
			maxMean = m
		}
	}
	return maxMean + 8*s.SlowestTimeConstant() + extraRise
}

// AreaBetween returns the exact area between the input signal and the
// response at node i: integral (v_in - v_out) dt over [0, inf). By the
// paper's eq. 48 this equals the Elmore delay for any monotone input
// reaching 1. Computed analytically for PWL inputs.
func (s *System) AreaBetween(i int, p *signal.PWL) float64 {
	// integral (v_in - v_out) = integral (1 - v_out) - integral (1 - v_in).
	// For the exact engine: integral_0^T (t - S_i(t-shift)) terms telescope;
	// easier: area = lim T->inf [ integral v_in - integral v_out ].
	// integral_0^T v_in dt = T - A_in where A_in = integral (1 - v_in).
	// For a PWL ending at tEnd: A_in = tEnd - integral_0^tEnd v_in.
	pts := p.Points
	tEnd := pts[len(pts)-1].T
	var inInt float64 // integral of v_in over [0, tEnd]
	for k := 0; k+1 < len(pts); k++ {
		inInt += 0.5 * (pts[k].V + pts[k+1].V) * (pts[k+1].T - pts[k].T)
	}
	aIn := tEnd - inInt
	// A_out = integral (1 - v_out) dt: evaluate analytically via the
	// asymptote of VPWL. For large T, S_i(T - a) -> (T - a) - K_i with
	// K_i = sum_j coef_ij / λ_j (the Elmore delay), so
	// integral_0^T (1 - v_out) -> A_in + K_i exactly in the limit.
	// We compute it numerically to act as an independent check.
	horizon := tEnd + 40*s.SlowestTimeConstant()
	const steps = 20000
	var outInt float64
	dt := horizon / steps
	prev := 1 - s.VPWL(i, p, 0)
	for k := 1; k <= steps; k++ {
		cur := 1 - s.VPWL(i, p, float64(k)*dt)
		outInt += 0.5 * (prev + cur) * dt
		prev = cur
	}
	return outInt - aIn
}
