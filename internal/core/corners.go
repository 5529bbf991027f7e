package core

import (
	"fmt"
	"math"

	"elmore/internal/moments"
	"elmore/internal/rctree"
)

// CornerOptions describes a process-variation box: every resistance may
// vary within [1-RRel, 1+RRel] of nominal, every capacitance within
// [1-CRel, 1+CRel], independently per element.
type CornerOptions struct {
	RRel, CRel float64 // relative half-widths, in [0, 1)
}

func (o CornerOptions) validate() error {
	if o.RRel < 0 || o.RRel >= 1 || math.IsNaN(o.RRel) {
		return fmt.Errorf("core: RRel must be in [0, 1), got %v", o.RRel)
	}
	if o.CRel < 0 || o.CRel >= 1 || math.IsNaN(o.CRel) {
		return fmt.Errorf("core: CRel must be in [0, 1), got %v", o.CRel)
	}
	return nil
}

// CornerInterval is a guaranteed 50% step-delay interval at one node
// across the entire variation box.
type CornerInterval struct {
	Node  string
	Lower float64 // >= this at every corner of the box
	Upper float64 // <= this at every corner of the box
}

// CornerIntervals computes guaranteed delay intervals under elementwise
// R/C variation:
//
//   - Upper = T_D evaluated at the slow corner (all R and C maximal).
//     Rigorous: the Elmore sum T_D = sum R_ki C_k is monotone in every
//     element, and at any parameter point the actual delay <= T_D there
//     (the paper's Theorem), hence <= T_D(slow corner).
//   - Lower = max(mu(fast corner) - sigma(slow corner), 0). Rigorous
//     given Corollary 1 at the actual parameter point θ:
//     delay(θ) >= mu(θ) - sigma(θ) >= mu(fast) - sigma(slow), using the
//     monotonicity of mu = T_D (exact) and of mu2 (sum of positive
//     monomials in the R's and C's, see the Appendix-B expansion — a
//     property also enforced by the package tests).
func CornerIntervals(t *rctree.Tree, opts CornerOptions) ([]CornerInterval, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	slow, err := t.Scaled(1+opts.RRel, 1+opts.CRel)
	if err != nil {
		return nil, err
	}
	fast, err := t.Scaled(1-opts.RRel, 1-opts.CRel)
	if err != nil {
		return nil, err
	}
	msSlow, err := moments.Compute(slow)
	if err != nil {
		return nil, err
	}
	tdFast := moments.ElmoreDelays(fast)
	out := make([]CornerInterval, t.N())
	for i := 0; i < t.N(); i++ {
		lower := tdFast[i] - msSlow.Sigma(i)
		if lower < 0 {
			lower = 0
		}
		out[i] = CornerInterval{
			Node:  t.Name(i),
			Lower: lower,
			Upper: msSlow.Elmore(i),
		}
	}
	return out, nil
}
