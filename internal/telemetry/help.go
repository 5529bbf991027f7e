package telemetry

// Real HELP text for the metrics the engines emit, replacing the
// generated "Counter X from the elmore metrics registry" boilerplate
// in the Prometheus exposition. Kept here (rather than scattered at
// emission sites) because emission sites are hot paths that only ever
// touch metrics via the name-keyed accessors; the HELP table is cold
// configuration installed once per process by cliutil.Session.

// standardHelp maps registry metric names to operator-facing HELP
// text. Names absent from the table fall back to the generated
// boilerplate, so the table can trail new instrumentation without
// breaking exposition.
var standardHelp = map[string]string{
	"core.analyses":                     "Delay-bound analyses completed (one per net evaluation).",
	"core.nodes_analyzed":               "RC-tree nodes swept by delay-bound analyses.",
	"core.reanalyses":                   "Targeted incremental re-bounding passes (Analysis.Reanalyze).",
	"core.nodes_reanalyzed":             "Nodes re-bounded by incremental reanalysis.",
	"core.sim_verifications":            "Bound intervals cross-checked against transient simulation.",
	"moments.computes":                  "Full moment-set computations (cache misses end up here).",
	"moments.traversals":                "Tree traversals performed by the moment engine.",
	"moments.node_visits":               "Node visits across all moment traversals.",
	"incremental.binds":                 "Incremental engines bound to a compiled tree.",
	"incremental.sets":                  "SetR/SetC delta updates applied to incremental engines.",
	"incremental.reverts":               "Incremental delta batches rolled back.",
	"incremental.commits":               "Incremental delta batches committed.",
	"incremental.flushes":               "Pending pre-order ranges swept by incremental engines.",
	"incremental.nodes_touched":         "Nodes recomputed by incremental flushes.",
	"sim.runs":                          "Fixed-step transient simulations run.",
	"sim.plan_runs":                     "Reusable-plan transient simulations run.",
	"sim.plans":                         "Transient simulation plans compiled (stamp+factor).",
	"sim.adaptive_runs":                 "Adaptive-step transient simulations run.",
	"sim.adaptive_rejections":           "Adaptive steps rejected by the local error control.",
	"sim.steps":                         "Transient integration steps taken across all simulators.",
	"sim.lu_factorizations":             "LU factorizations performed by the simulators.",
	"sim.horizon_seconds":               "Time horizon of the most recent transient simulation.",
	"exact.systems":                     "Exact (eigensolve) systems solved.",
	"exact.poles":                       "Poles extracted by the exact solver.",
	"exact.eigensolve_sweeps":           "Jacobi sweeps performed by the exact eigensolver.",
	"exact.regularizations":             "Exact solves that required grounding regularization.",
	"exact.regularized_nodes":           "Nodes grounded by exact-solver regularization.",
	"awe.fits":                          "AWE reduced-order fits attempted.",
	"awe.unstable_fits":                 "AWE fits rejected as unstable.",
	"awe.fallbacks":                     "AWE evaluations that fell back to the dominant pole.",
	"sta.paths":                         "Timing paths evaluated by the STA engine.",
	"sta.stages":                        "Gate/interconnect stages evaluated by the STA engine.",
	"batch.jobs":                        "Batch jobs completed (success or failure).",
	"batch.job_errors":                  "Batch jobs that finished with an error.",
	"batch.jobs_cancelled":              "Batch jobs abandoned due to run cancellation.",
	"batch.queue_depth":                 "Jobs currently queued or executing in the batch engine.",
	"batch.reorder_occupancy":           "Results parked in the in-order emission buffer.",
	"batch.reorder_stalls":              "Times the emitter stalled waiting for an out-of-order result.",
	"batch.cache_hits":                  "Moment-cache hits in the batch engine.",
	"batch.cache_misses":                "Moment-cache misses in the batch engine.",
	"batch.plan_cache_hits":             "Compiled-plan cache hits in the batch engine.",
	"batch.plan_cache_misses":           "Compiled-plan cache misses in the batch engine.",
	"batch.hot_tree_hits":               "Batch net loads served from the run's tree cache without re-parsing.",
	"batch.hot_tree_misses":             "Batch net loads that parsed a tree before caching it for the run.",
	"batch.hot_tree_evictions":          "Trees evicted from a batch run's bounded tree cache.",
	"batch.resumed_jobs":                "Jobs skipped on resume because the journal marked them done.",
	"batch.journal_syncs":               "fsync batches issued by the resume journal.",
	"batch.workers":                     "Worker goroutines configured for the current batch run.",
	"batch.parallel_efficiency":         "Attributed busy time / (workers x wall time) for the last run.",
	"batch.reorder_peak":                "Peak occupancy of the in-order emission buffer.",
	"resilience.retries":                "Job attempts re-run after a transient failure.",
	"resilience.degraded":               "Jobs degraded to the guaranteed Elmore-bound interval.",
	"resilience.breaker_opens":          "Circuit-breaker transitions to open.",
	"resilience.breaker_probes":         "Half-open probe attempts allowed through a breaker.",
	"resilience.breaker_rejects":        "Calls rejected by an open circuit breaker.",
	"resilience.stuck_jobs":             "Jobs flagged by the watchdog as exceeding their deadline.",
	"resilience.stuck_cancels":          "Stuck jobs the watchdog escalated to cancellation.",
	"resilience.admitted":               "Requests admitted by the serve-mode limiter.",
	"resilience.shed_rate":              "Requests shed because the tenant exceeded its token-bucket rate (HTTP 429).",
	"resilience.shed_capacity":          "Requests shed at the process-wide in-flight cap (HTTP 503).",
	"resilience.shed_breaker":           "Requests shed by an open per-tenant circuit breaker (HTTP 503).",
	"resilience.tenant_evictions":       "Longest-idle tenant buckets evicted from the bounded limiter table.",
	"serve.requests":                    "HTTP requests accepted by elmored (all endpoints).",
	"serve.requests_shed":               "HTTP requests shed by admission control (429/503 + Retry-After).",
	"serve.requests_failed":             "HTTP requests that finished with a server-side error.",
	"serve.batches":                     "Batch /v1/analyze requests completed.",
	"serve.jobs":                        "Jobs evaluated across all /v1/analyze requests.",
	"serve.inflight":                    "Requests currently inside the serve drain gate.",
	"serve.hot_tree_hits":               "Net loads served from the hot-tree LRU without re-parsing.",
	"serve.hot_tree_misses":             "Net loads that parsed a tree before caching it.",
	"serve.hot_tree_evictions":          "Trees evicted from the bounded hot-tree LRU.",
	"serve.deadline_truncations":        "Requests whose per-job timeout was tightened to the client deadline.",
	"serve.drains":                      "Graceful drains begun (SIGTERM / shutdown).",
	"faultinject.fired":                 "Injected faults fired across all points.",
	"health.events":                     "Numerical health events observed (all severities).",
	"health.violations":                 "Numerical invariant violations (Lemma 2, bound ordering, NaN).",
	"flight.dumps":                      "Flight-recorder dumps written (SIGQUIT, panic, breaker, slow job).",
	"runtime.goroutines":                "Goroutines at the last runtime sample.",
	"runtime.gomaxprocs":                "GOMAXPROCS at the last runtime sample.",
	"runtime.heap_bytes":                "Live heap bytes at the last runtime sample.",
	"runtime.mem_total_bytes":           "Total bytes obtained from the OS at the last runtime sample.",
	"runtime.gc_cycles":                 "Completed GC cycles at the last runtime sample.",
	"runtime.gc_pause_total_seconds":    "Cumulative GC stop-the-world pause seconds.",
	"runtime.gc_pause_p99_seconds":      "p99 GC pause from the runtime's pause distribution.",
	"runtime.sched_latency_p50_seconds": "p50 goroutine scheduling latency.",
	"runtime.sched_latency_p99_seconds": "p99 goroutine scheduling latency.",
	"runtime.mutex_wait_seconds":        "Cumulative mutex wait seconds from runtime/metrics.",
	"runtime.gc_cpu_seconds":            "Cumulative GC CPU seconds from runtime/metrics.",
}

// InstallStandardHelp registers the standard HELP table on r (no-op on
// nil). Metrics created later still pick up their text: HELP is keyed
// by name at exposition time, not bound at creation.
func InstallStandardHelp(r *Registry) {
	if r == nil {
		return
	}
	for name, text := range standardHelp {
		r.SetHelp(name, text)
	}
}
