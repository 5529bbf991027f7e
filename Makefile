GO ?= go

.PHONY: check build test vet race health-strict chaos fuzz-smoke flake-guard inline-check bench bench-smoke bench-incremental scaling-smoke obs-smoke serve-smoke fmt

check: vet build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The full suite with a strict numerical-health monitor installed:
# any NaN/Inf, Lemma 2, or bound-ordering violation fails the run.
health-strict:
	ELMORE_STRICT_NUMERICS=1 $(GO) test ./...

# Fault-injection chaos suite under the race detector: thousands of
# batch jobs with seeded faults in the simulator, moment engine, and
# dispatcher, plus the journal resume and cancellation-leak tests.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestJournal|TestRunSpecsJournalResume|TestRunFuncStopsEmittingAfterCancel' \
		./internal/batch
	$(GO) test -race -count=1 ./internal/faultinject ./internal/resilience ./internal/cliutil

# Short exploratory fuzz runs for the three line-oriented parsers (job
# specs, decks, cell libraries), the journal replay and its resume, the
# result-line writer (against encoding/json), the engine's sink-only
# bounds (against a full core.Analyze), the incremental moment engine,
# the cumulant kernel (against a 400-bit oracle) and the value parser.
# Go allows one -fuzz pattern per package invocation, hence one command
# per target.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadSpecs -fuzztime=$(FUZZTIME) ./internal/batch
	$(GO) test -fuzz=FuzzReadReplay -fuzztime=$(FUZZTIME) ./internal/batch
	$(GO) test -fuzz=FuzzWriteResult -fuzztime=$(FUZZTIME) ./internal/batch
	$(GO) test -fuzz=FuzzSinkBounds -fuzztime=$(FUZZTIME) ./internal/batch
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/netlist
	$(GO) test -fuzz=FuzzParseLibrary -fuzztime=$(FUZZTIME) ./internal/gate
	$(GO) test -fuzz=FuzzIncrementalEdits -fuzztime=$(FUZZTIME) ./internal/moments
	$(GO) test -fuzz=FuzzCumulantOracle -fuzztime=$(FUZZTIME) ./internal/moments
	$(GO) test -fuzz=FuzzParseValue -fuzztime=$(FUZZTIME) ./internal/rctree

# The randomized property tests draw fresh trees on every run, and the
# suite runs each once, so a one-in-twenty failure can hide for many
# pushes. This lane repeats the Lemma 1 property (impulse response
# nonnegative, step response monotone on random trees) 100 times:
# about 20 s on a 2-vCPU box.
flake-guard:
	$(GO) test -count=100 -run '^TestLemma1NonNegativeMonotone$$' ./internal/exact

# A what-if probe's leaf scan reads Incremental.Elmore once per leaf,
# and the read costs a range check and two loads only while the
# compiler inlines it (DESIGN.md §9). The check requires the compiler
# to report each listed method as inlinable. The go command replays a
# cached package's compiler output, and a missing line fails the check,
# so neither a cached build nor an empty output can pass it.
INLINED = Elmore PathResistance
inline-check:
	@out=$$($(GO) build -gcflags=elmore/internal/moments=-m ./internal/moments 2>&1) || { echo "$$out"; exit 1; }; \
	for f in $(INLINED); do \
		echo "$$out" | grep -E ": can inline \(\*Incremental\)\.$$f$$" || \
			{ echo "inline-check: the compiler no longer inlines (*Incremental).$$f" >&2; exit 1; }; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# Timing floors on pure chains, the deepest topology. Incremental-engine
# speedup (ISSUE 8 acceptance): on a 100k-node chain, a single SetC plus
# re-bounding the perturbed sink must beat a full analysis by >= 10x.
# Chain scaling: a full analysis at n=100k must take < 30x its n=10k
# time (linear reads ~10x). Both sides are linear, so the lane takes
# seconds. Each test runs in its own process, so neither times the
# other's heap.
bench-incremental:
	ELMORE_BENCH_SMOKE=1 $(GO) test -run '^TestIncrementalSpeedupSmoke$$' -v -count=1 -timeout 600s .
	ELMORE_BENCH_SMOKE=1 $(GO) test -run '^TestAnalyzeChainLinearSmoke$$' -v -count=1 -timeout 600s .

# One iteration of every benchmark: exercises the bench code paths in
# CI without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# Scaling-diagnosis smoke: a small scalestat sweep under the race
# detector, validated by -check (report must parse, efficiency and
# attribution fields must be finite, >= 95% of per-worker wall time
# accounted), plus a profiled batch run that exercises the contention
# observability path end to end (mutex/block/heap pprof capture and
# runtime_sample records in the trace). On boxes with >= 4 CPUs the
# check also enforces the scaling floors the sharded-cache fix bought:
# parallel efficiency >= 0.5, speedup >= 0.5 x workers per step, and a
# lock-wait share under 10% of attributed worker time; below 4 CPUs
# scalestat skips the floors (noted on stderr) so laptops and
# single-core runners stay green.
scaling-smoke:
	mkdir -p artifacts
	$(GO) run -race ./cmd/scalestat -nets 200 -nodes 16 -share 20 -workers 1,2 \
		-check -efficiency-min 0.5 -speedup-min 0.5 -lockwait-max 0.10 -min-cpus 4 \
		-o artifacts/scaling-report.json
	$(GO) run -race ./cmd/boundstat -trees 60 -max-nodes 24 \
		-profile-dir artifacts/profiles -mutex-profile 5 -block-profile 10000 \
		-runtime-sample 100ms -trace artifacts/scaling-trace.ndjson \
		> artifacts/scaling-boundstat.txt
	$(GO) run ./cmd/tracestat -by-goroutine artifacts/scaling-trace.ndjson

# Observability smoke (PR 9): a seeded-fault chaos batch with the full
# lineage pipeline armed — per-job trace_ids, the always-on flight
# recorder, SLO objectives — then assert the run is reconstructable:
# every job maps to a unique trace, the flight dump exists and links
# back to the run, every degraded job's attempt lineage appears in
# tracestat -by-trace, and the summary's SLO rows account for every
# job. Finally the disabled-path budgets: with no tracer/recorder/SLOs
# installed the per-job observability cost must stay at zero
# allocations (AllocsPerRun-asserted in the named tests).
obs-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/rcgen -topology random -n 24 -seed 7 -o artifacts/obs-net.sp
	seq 1 40 | awk '{printf "{\"id\":\"j%d\",\"net\":\"artifacts/obs-net.sp\",\"dt\":\"1p\"}\n", $$1}' \
		> artifacts/obs-jobs.ndjson
	rm -f artifacts/obs-flight.ndjson
	ELMORE_FAULTS='sim.step:error:p=0.05' ELMORE_FAULT_SEED=9 \
	$(GO) run ./cmd/boundstat -jobs artifacts/obs-jobs.ndjson \
		-workers 4 -retries 2 -slo p99=1s,p50=1ms -summary -progress 0 \
		-trace artifacts/obs-trace.ndjson \
		-flight-dump artifacts/obs-flight.ndjson \
		> artifacts/obs-results.ndjson 2> artifacts/obs-summary.ndjson
	test -s artifacts/obs-flight.ndjson
	$(GO) run ./cmd/tracestat -by-trace \
		artifacts/obs-trace.ndjson artifacts/obs-flight.ndjson \
		| tee artifacts/obs-bytrace.txt
	python3 scripts/obs_lineage_check.py artifacts/obs-jobs.ndjson \
		artifacts/obs-results.ndjson artifacts/obs-flight.ndjson \
		artifacts/obs-bytrace.txt artifacts/obs-summary.ndjson
	$(GO) test -run 'TestWorkerLoopAllocBudget|TestFlightDisabledPathFree|TestMintTraceAllocFree|TestSketchBoundedMemory|TestReporterBoundedLatencyMemory' \
		-count=1 -v ./internal/batch ./internal/telemetry | grep -E '^(=== RUN|--- (PASS|FAIL)|ok|FAIL)'

# Serve-mode smoke (ISSUE 10 acceptance): elmored under 2x-capacity
# load with seeded serve.decode faults must shed with Retry-After while
# admitted requests meet the SLO, and a SIGTERM mid-batch must exit 0,
# dump the flight ring, and resume the journaled batch exactly-once
# after a restart. Driven end to end by loadgen; artifacts (trace,
# flight dump, metrics snapshot, reports, logs) land in artifacts/.
serve-smoke:
	bash scripts/serve_smoke.sh

fmt:
	gofmt -l .
