package moments

import "context"

// Arena is a grow-only scratch allocator for the transient sweep
// buffers of the moment kernels. The compute paths in this package
// allocate short-lived scratch sized to the tree (2n or 3n floats per
// call) that dies with the call; a batch worker evaluating thousands of nets
// pays that allocation — and the GC pressure behind it — once per job.
// An Arena amortizes it: the buffer grows to the largest net seen and
// is reused for every later call.
//
// Safety model: only scratch that is dead before the compute returns
// may come from the arena. Retained results (a Set's moment rows, a
// PRHTerms' per-node arrays) always get their own backing, because
// cached Sets are shared across workers while the arena belongs to
// exactly one. The kernels never read a scratch slot before writing it,
// so a dirty reused buffer produces bit-identical results to a fresh
// zeroed one (asserted by TestArenaBitIdentical).
//
// An Arena is NOT safe for concurrent use: each batch worker owns one,
// threaded through the jobs it runs via WithArena. The zero value is
// ready to use, and a nil *Arena degrades to plain allocation
// everywhere it is accepted.
type Arena struct {
	buf []float64
}

// scratch returns an uninitialized []float64 of length n, growing the
// arena if needed. A nil arena allocates a fresh slice — the exact
// behavior of the non-arena paths.
func (a *Arena) scratch(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if cap(a.buf) < n {
		a.buf = make([]float64, n)
	}
	return a.buf[:n]
}

// arenaKey carries a *Arena through a context, so the batch engine can
// hand each worker's arena down through core.Analyze into this package
// without widening every signature in between.
type arenaKey struct{}

// WithArena returns a context carrying the arena; compute paths that
// accept a context (core.AnalyzeContext, batch cache fills) draw their
// scratch from it.
func WithArena(ctx context.Context, a *Arena) context.Context {
	return context.WithValue(ctx, arenaKey{}, a)
}

// ArenaFrom returns the arena carried by ctx, or nil (plain
// allocation) when the caller did not install one.
func ArenaFrom(ctx context.Context) *Arena {
	a, _ := ctx.Value(arenaKey{}).(*Arena)
	return a
}
