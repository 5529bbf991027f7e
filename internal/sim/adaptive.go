package sim

import (
	"context"
	"fmt"
	"math"

	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
)

// stepper advances the per-row θ-method by one fixed step; it owns the
// assembled matrices for one step size and can be rebuilt cheaply
// (O(N)) when the step changes — the property that makes adaptive
// stepping on trees inexpensive. All state vectors are node-indexed.
type stepper struct {
	tree    *rctree.Tree
	lay     rctree.Arrays
	in      signal.Signal
	theta   []float64
	omTheta []float64
	g       []float64
	bvec    []float64
	dt      float64
	f       *treeLU
	// stamping workspaces, reused across refactorizations
	diag, rowChild, rowParent []float64
}

func newStepper(t *rctree.Tree, in signal.Signal, method Method) (*stepper, error) {
	var aMethod float64
	switch method {
	case Trapezoidal:
		aMethod = 0.5
	case BackwardEuler:
		aMethod = 1
	default:
		return nil, fmt.Errorf("sim: unknown method %v", method)
	}
	lay := t.Arrays()
	n := t.N()
	s := &stepper{
		tree:      t,
		lay:       lay,
		in:        in,
		theta:     make([]float64, n),
		omTheta:   make([]float64, n),
		g:         make([]float64, n),
		bvec:      make([]float64, n),
		diag:      make([]float64, n),
		rowChild:  make([]float64, n),
		rowParent: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if lay.C[i] == 0 {
			s.theta[i] = 1
		} else {
			s.theta[i] = aMethod
		}
		s.omTheta[i] = 1 - s.theta[i]
		s.g[i] = 1 / lay.R[i]
		if lay.Parent[i] == rctree.Source {
			s.bvec[i] = s.g[i]
		}
	}
	return s, nil
}

// refactor assembles and factors the system matrix for step size dt.
func (s *stepper) refactor(dt float64) error {
	cOverDt := s.diag // reuse: stampTree overwrites diag anyway
	for i, c := range s.lay.C {
		cOverDt[i] = c / dt
	}
	// cOverDt aliases diag; stampTree reads cOverDt[i] before writing
	// diag[i], and only at the same index, so the alias is safe.
	stampTree(s.lay, s.theta, s.g, cOverDt, s.diag, s.rowChild, s.rowParent)
	f, err := factorTree(s.lay, s.diag, s.rowChild, s.rowParent, s.tree.Name)
	if err != nil {
		return err
	}
	// factorTree retains rowChild; detach it so the next refactor does
	// not scribble over the factorization still in use.
	s.rowChild = make([]float64, len(s.rowChild))
	s.f = f
	s.dt = dt
	return nil
}

// step advances v from tPrev by the factored dt; out receives the new
// state. v and out must be distinct slices.
func (s *stepper) step(v, out []float64, tPrev float64) {
	ks, kids, par, c := s.lay.KidStart, s.lay.Kids, s.lay.Parent, s.lay.C
	g, bvec, theta, omTheta := s.g, s.bvec, s.theta, s.omTheta
	uPrev := s.in.Eval(tPrev)
	uCur := s.in.Eval(tPrev + s.dt)
	dt := s.dt
	for i := range par {
		var cur float64
		if pa := par[i]; pa != rctree.Source {
			cur = g[i] * (v[i] - v[pa])
		} else {
			cur = g[i] * v[i]
		}
		gv := cur
		for _, ch := range kids[ks[i]:ks[i+1]] {
			gv -= g[ch] * (v[ch] - v[i])
		}
		uTerm := theta[i]*uCur + omTheta[i]*uPrev
		out[i] = c[i]/dt*v[i] - omTheta[i]*gv + bvec[i]*uTerm
	}
	s.f.solve(out)
}

// RunAdaptive integrates with step-doubling local error control: each
// accepted step compares one step of size h against two of h/2 and
// keeps the error per step below tol (in volts, on the unit-swing
// response). The step grows when the error is comfortably small and
// shrinks on rejection, so stiff fronts are resolved without paying
// their cost over the whole horizon. Probing and result layout match
// Run, but sample times are non-uniform.
//
// For stiff circuits (time constants spanning many decades) use
// Method: BackwardEuler — the trapezoidal rule does not damp modes
// with lambda*h >> 1, so at input discontinuities its step-doubling
// error stays O(1) until h shrinks to the fastest time constant, which
// may underflow the step floor.
func RunAdaptive(t *rctree.Tree, opts Options, tol float64) (*Result, error) {
	return RunAdaptiveContext(context.Background(), t, opts, tol)
}

// RunAdaptiveContext is RunAdaptive under a context, recording the run
// as a telemetry span (accepted steps, rejections, refactorizations)
// when a tracer is installed.
func RunAdaptiveContext(ctx context.Context, t *rctree.Tree, opts Options, tol float64) (*Result, error) {
	if tol <= 0 || math.IsNaN(tol) {
		return nil, fmt.Errorf("sim: adaptive tolerance must be positive, got %v", tol)
	}
	n := t.N()
	_, sp := telemetry.Start(ctx, "sim.run_adaptive")
	sp.AttrInt("nodes", int64(n))
	sp.AttrFloat("tol", tol)
	defer sp.End()
	in := opts.Input
	if in == nil {
		in = signal.Step{}
	}
	if err := signal.Validate(in); err != nil {
		return nil, err
	}
	tEnd := opts.TEnd
	if tEnd <= 0 {
		tEnd = defaultHorizon(t, in)
	}
	hInit := opts.DT
	if hInit <= 0 {
		hInit = tEnd / 4096
	}

	st, err := newStepper(t, in, opts.Method)
	if err != nil {
		return nil, err
	}

	probes := opts.Probes
	if len(probes) == 0 {
		probes = make([]int, n)
		for i := range probes {
			probes[i] = i
		}
	}
	res := &Result{probes: make(map[int]int, len(probes)), values: make([][]float64, len(probes))}
	for row, node := range probes {
		if node < 0 || node >= n {
			return nil, fmt.Errorf("sim: probe index %d out of range [0,%d)", node, n)
		}
		res.probes[node] = row
	}

	v := make([]float64, n)
	full := make([]float64, n)
	half := make([]float64, n)
	half2 := make([]float64, n)
	record := func(tm float64) {
		res.Times = append(res.Times, tm)
		for row, node := range probes {
			res.values[row] = append(res.values[row], v[node])
		}
	}
	record(0)

	const (
		hMinFactor = 1e-15
		maxSteps   = 10_000_000
	)
	h := hInit
	now := 0.0
	steps := 0
	accepted, rejected, refactors := 0, 0, 0
	for now < tEnd {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("sim: adaptive run exceeded %d steps (tolerance too tight?)", maxSteps)
		}
		if now+h > tEnd {
			h = tEnd - now
		}
		if h < tEnd*hMinFactor {
			return nil, fmt.Errorf("sim: adaptive step underflow at t=%g", now)
		}
		// One full step.
		if st.dt != h {
			if err := st.refactor(h); err != nil {
				return nil, err
			}
			refactors++
		}
		st.step(v, full, now)
		// Two half steps.
		if err := st.refactor(h / 2); err != nil {
			return nil, err
		}
		refactors++
		st.step(v, half, now)
		st.step(half, half2, now+h/2)

		errEst := 0.0
		for i := 0; i < n; i++ {
			if e := math.Abs(full[i] - half2[i]); e > errEst {
				errEst = e
			}
		}
		if errEst > tol {
			h /= 2
			rejected++
			continue
		}
		// Accept the more accurate half-step result.
		copy(v, half2)
		now += h
		record(now)
		accepted++
		if errEst < tol/8 {
			h *= 2
		}
	}
	sp.AttrInt("steps", int64(accepted))
	sp.AttrInt("rejections", int64(rejected))
	sp.AttrInt("refactorizations", int64(refactors))
	telemetry.C("sim.adaptive_runs").Inc()
	telemetry.C("sim.steps").Add(int64(accepted))
	telemetry.C("sim.adaptive_rejections").Add(int64(rejected))
	telemetry.C("sim.lu_factorizations").Add(int64(refactors))
	telemetry.G("sim.horizon_seconds").Set(tEnd)
	return res, nil
}
