// Package cliutil carries the flags and lifecycle shared by every
// cmd/* tool: observability switches (-trace, -metrics, -debug-addr,
// -strict-numerics, -health-log), the -version flag, and the session
// object that opens/flushes the trace file, installs the process-wide
// metrics registry and numerical-health monitor, and serves
// net/http/pprof + Prometheus /metrics for live inspection.
//
// The intended wiring inside a tool's run function:
//
//	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
//	cf := cliutil.Add(fs)
//	if err := fs.Parse(args); err != nil { return err }
//	if cf.Version {
//	    fmt.Fprintln(stdout, cliutil.Version("tool"))
//	    return nil
//	}
//	sess, err := cf.Start(stderr)
//	if err != nil { return err }
//	defer func() { err = errors.Join(err, sess.Close()) }()
//	ctx := sess.Context()
//	// ... pass ctx to the engines; telemetry.Start for tool phases.
package cliutil

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"context"

	"elmore/internal/batch"
	"elmore/internal/gate"
	"elmore/internal/health"
	"elmore/internal/resilience"
	"elmore/internal/telemetry"
)

// Flags holds the shared observability/version flags. Create with Add.
type Flags struct {
	Trace          string // -trace: JSON-lines span log path
	Metrics        bool   // -metrics: snapshot to stderr on exit
	DebugAddr      string // -debug-addr: pprof and /metrics listen address
	Version        bool   // -version: print build info and exit
	StrictNumerics bool   // -strict-numerics: numerical-health violations fail the run
	HealthLog      string // -health-log: NDJSON health-event log path

	// Contention observability: opt-in runtime profiling and sampling.
	MutexProfile  int           // -mutex-profile: SetMutexProfileFraction rate; 0 off
	BlockProfile  int           // -block-profile: SetBlockProfileRate ns; 0 off
	ProfileDir    string        // -profile-dir: write pprof profiles here on exit
	RuntimeSample time.Duration // -runtime-sample: runtime/metrics sampling period; 0 off

	// FlightDump enables the flight recorder and names the NDJSON file
	// its ring dumps into (on SIGQUIT, panic isolation, breaker-open,
	// slow-job breach, or an injected fault). Recording itself is
	// lock-free and zero-allocation; only dumps touch the file.
	FlightDump string
	// FlightEvents sizes each per-worker ring (0 = 512 events).
	FlightEvents int
}

// Add registers the shared flags on fs and returns the value holder.
func Add(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSON-lines span trace to `file`")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics snapshot to stderr on exit")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof and Prometheus /metrics on `addr` (e.g. localhost:6060)")
	fs.BoolVar(&f.Version, "version", false, "print version information and exit")
	fs.BoolVar(&f.StrictNumerics, "strict-numerics", false, "fail the run on any numerical-health violation")
	fs.StringVar(&f.HealthLog, "health-log", "", "write NDJSON numerical-health events to `file` (default stderr when -strict-numerics)")
	fs.IntVar(&f.MutexProfile, "mutex-profile", 0, "sample 1/`n` of mutex contention events (runtime.SetMutexProfileFraction; 0 = off)")
	fs.IntVar(&f.BlockProfile, "block-profile", 0, "sample blocking events lasting >= `ns` nanoseconds (runtime.SetBlockProfileRate; 0 = off)")
	fs.StringVar(&f.ProfileDir, "profile-dir", "", "write pprof profiles (heap, plus mutex/block when enabled) into `dir` on exit")
	fs.DurationVar(&f.RuntimeSample, "runtime-sample", 0, "sample runtime/metrics (GC pauses, sched latency, goroutines) every `period` into the metrics registry and trace (0 = off)")
	fs.StringVar(&f.FlightDump, "flight-dump", "", "keep an in-memory flight recorder of recent spans/events and dump it as NDJSON to `file` on SIGQUIT, panics, breaker trips, slow jobs and injected faults")
	fs.IntVar(&f.FlightEvents, "flight-events", 0, "flight-recorder ring size per worker shard, rounded up to a power of two (0 = 512)")
	return f
}

// EngineFlags holds the batch-engine flags that the -jobs CLIs and
// elmored share: worker pool, per-attempt timeout and the resilience
// layer. Both binaries register them through AddEngine (the CLIs via
// AddBatch), so the names, defaults and engine they build are one.
type EngineFlags struct {
	Workers int           // -workers: max concurrent jobs; 0 means GOMAXPROCS
	Timeout time.Duration // -timeout: per-attempt limit; 0 means none
	Retries int           // -retries: extra attempts for transient failures
	Degrade bool          // -degrade: elmore-bound fallback for exhausted sim jobs
	Breaker int           // -breaker: per-net consecutive-failure threshold; 0 disables
}

// AddEngine registers the engine flags on fs and returns the value
// holder.
func AddEngine(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	f.register(fs)
	return f
}

func (f *EngineFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0, "max concurrent jobs per batch (0 = GOMAXPROCS)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-attempt job time limit, e.g. 30s (0 = none; elmored tightens it to each request's deadline)")
	fs.IntVar(&f.Retries, "retries", 0, "retry transiently failing jobs up to `n` extra times with backoff")
	fs.BoolVar(&f.Degrade, "degrade", true, "answer sim jobs that exhaust their attempts with the closed-form elmore-bound interval instead of an error")
	fs.IntVar(&f.Breaker, "breaker", 0, "cut off a net after `n` consecutive transient failures (0 = off)")
}

// Validate rejects flag values the engine would otherwise silently
// coerce, so a typo'd -workers -1 fails loudly instead of running with
// GOMAXPROCS workers.
func (f *EngineFlags) Validate() error {
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", f.Workers)
	}
	if f.Timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", f.Timeout)
	}
	if f.Retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", f.Retries)
	}
	if f.Breaker < 0 {
		return fmt.Errorf("-breaker must be >= 0, got %d", f.Breaker)
	}
	return nil
}

// Engine builds the engine the flags describe: worker pool, per-attempt
// timeout and the resilience layer (retry policy, circuit breaker,
// degradation switch). It has no moment cache and no reporter; each
// host adds its own per run or per request. Injected panics count as
// retryable here — the chaos walkthrough drives unmodified binaries
// through ELMORE_FAULTS.
func (f *EngineFlags) Engine() *batch.Engine {
	eng := &batch.Engine{
		Workers:   f.Workers,
		Timeout:   f.Timeout,
		NoDegrade: !f.Degrade,
	}
	if f.Retries > 0 {
		eng.Retry = &resilience.Policy{
			MaxAttempts: f.Retries + 1,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			RetryPanics: true,
		}
	}
	if f.Breaker > 0 {
		eng.Breaker = &resilience.Breaker{Threshold: f.Breaker}
	}
	return eng
}

// BatchFlags holds the batch-mode flags shared by boundstat and sta:
// -jobs switches the tool from its single-shot mode to streaming
// NDJSON batch evaluation on the internal/batch engine.
type BatchFlags struct {
	EngineFlags

	Jobs     string        // -jobs: NDJSON job stream file; "" means no batch mode
	Progress time.Duration // -progress: progress-line period; 0 disables
	SlowJobs time.Duration // -slow-jobs: slow-job log threshold; 0 disables
	Summary  bool          // -summary: final NDJSON run summary
	Resume   string        // -resume: crash-safe journal file; "" disables

	// SLO declares latency objectives like "p99=50ms,p50=5ms". Each
	// objective gets good/bad counts and a burn-rate gauge in the
	// summary record and metrics registry.
	SLO string

	slos []telemetry.SLO // parsed by Validate
}

// AddBatch registers the batch-mode flags, the engine flags among
// them, on fs and returns the value holder.
func AddBatch(fs *flag.FlagSet) *BatchFlags {
	b := &BatchFlags{}
	fs.StringVar(&b.Jobs, "jobs", "", "evaluate the NDJSON job stream in `file` and emit NDJSON results")
	b.EngineFlags.register(fs)
	fs.DurationVar(&b.Progress, "progress", 2*time.Second, "batch progress-line period on stderr (0 = off)")
	fs.DurationVar(&b.SlowJobs, "slow-jobs", 0, "log batch jobs slower than `duration` as NDJSON to stderr (0 = off)")
	fs.BoolVar(&b.Summary, "summary", false, "write a final NDJSON batch run summary to stderr")
	fs.StringVar(&b.Resume, "resume", "", "crash-safe journal `file`: skip jobs it marks done, re-queue in-flight ones, record this run's completions")
	fs.StringVar(&b.SLO, "slo", "", "latency objectives like `p99=50ms,p50=5ms`; tracked per run with burn-rate gauges and summary counts")
	return b
}

// Validate checks the engine flags and parses -slo.
func (b *BatchFlags) Validate() error {
	if err := b.EngineFlags.Validate(); err != nil {
		return err
	}
	slos, err := telemetry.ParseSLOs(b.SLO)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	b.slos = slos
	return nil
}

// Engine builds the engine of one -jobs run: the engine flags' engine
// plus a moment cache for this run and the reporter the flags ask for.
func (b *BatchFlags) Engine(stderr io.Writer) *batch.Engine {
	eng := b.EngineFlags.Engine()
	eng.Cache = batch.NewCache()
	eng.Report = b.Reporter(stderr)
	return eng
}

// RunBatch executes the -jobs batch mode shared by boundstat and sta:
// it validates the flags, opens the job stream, replays and appends the
// -resume journal, installs SIGINT/SIGTERM cancellation (a Ctrl-C or a
// supervisor's TERM drains in-flight jobs, keeps the journal
// consistent, and leaves the rest for the next -resume run), and
// streams NDJSON results to stdout. A termination signal also dumps
// the flight recorder (when -flight-dump armed it) before cancelling,
// so a killed batch leaves a postmortem next to its journal — SIGTERM
// behaves like SIGQUIT plus a clean exit. A nonzero number of failed
// jobs fails the run after every result has been emitted.
func (b *BatchFlags) RunBatch(ctx context.Context, lib *gate.Library, defaultSlew float64, stdout, stderr io.Writer) (err error) {
	if err := b.Validate(); err != nil {
		return err
	}
	f, err := os.Open(b.Jobs)
	if err != nil {
		return fmt.Errorf("-jobs: %w", err)
	}
	defer f.Close()
	var (
		jr *batch.Journal
		rp *batch.Replay
	)
	if b.Resume != "" {
		jr, rp, err = batch.OpenJournal(b.Resume)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		defer func() { err = errors.Join(err, jr.Close()) }()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case sig := <-sigs:
			// Dump before cancelling: the recorder still holds the
			// interrupted jobs' events, which is exactly the postmortem a
			// killed batch should leave behind.
			reason := "sigint"
			if sig == syscall.SIGTERM {
				reason = "sigterm"
			}
			telemetry.FlightForceDump(reason)
			cancel()
		case <-ctx.Done():
		}
	}()
	st, err := batch.RunSpecsOpts(ctx, b.Engine(stderr), f, stdout, batch.SpecRunOptions{
		Lib: lib, DefaultSlew: defaultSlew, Journal: jr, Replay: rp,
	})
	if rp != nil && (st.Skipped > 0 || st.Requeued > 0) {
		fmt.Fprintf(stderr, "resume: %d done jobs skipped, %d in-flight jobs re-queued\n", st.Skipped, st.Requeued)
	}
	if st.Degraded > 0 {
		fmt.Fprintf(stderr, "degraded: %d jobs answered with the elmore-bound interval\n", st.Degraded)
	}
	if err != nil {
		return err
	}
	if st.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", st.Failed, st.Total)
	}
	return nil
}

// Reporter builds the batch.Reporter described by the flags, with all
// outputs multiplexed onto stderr. Returns nil when every report
// output is disabled, so it can be assigned to Engine.Report directly.
func (b *BatchFlags) Reporter(stderr io.Writer) *batch.Reporter {
	if b.slos == nil && b.SLO != "" {
		// Engine() without a prior Validate(): parse here, fail-soft;
		// Validate reports malformed specs loudly on the RunBatch path.
		b.slos, _ = telemetry.ParseSLOs(b.SLO)
	}
	if b.Progress <= 0 && b.SlowJobs <= 0 && !b.Summary && len(b.slos) == 0 {
		return nil
	}
	rep := &batch.Reporter{SLOs: b.slos}
	if b.Progress > 0 {
		rep.Progress = stderr
		rep.Interval = b.Progress
	}
	if b.SlowJobs > 0 {
		rep.SlowThreshold = b.SlowJobs
		rep.Slow = stderr
	}
	if b.Summary {
		rep.Summary = stderr
	}
	return rep
}

// Version returns a one-line version string for the named tool from
// the binary's embedded build info: module version, VCS revision and
// the Go toolchain.
func Version(tool string) string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return tool + " version unknown"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	parts := []string{tool, ver}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		parts = append(parts, rev+dirty)
	}
	parts = append(parts, bi.GoVersion)
	return strings.Join(parts, " ")
}

// Session is the live observability state of one tool invocation.
// Always Close it — Close flushes the trace, prints the -metrics
// snapshot, stops the debug server and restores the previous default
// registry.
type Session struct {
	ctx     context.Context
	stderr  io.Writer
	metrics bool

	reg  *telemetry.Registry
	prev *telemetry.Registry

	tracer    *telemetry.Tracer
	traceBuf  *bufio.Writer
	traceFile *os.File

	mon        *health.Monitor
	prevMon    *health.Monitor
	monStrict  bool
	healthBuf  *bufio.Writer
	healthFile *os.File

	sampler       *telemetry.RuntimeSampler
	profileDir    string
	mutexProfile  bool
	blockProfile  bool
	prevMutexFrac int

	flight     *telemetry.FlightRecorder
	prevFlight *telemetry.FlightRecorder
	sigquit    chan os.Signal

	ln net.Listener
}

// tracerSink adapts a Tracer into a telemetry.Sink so the runtime
// sampler's NDJSON records interleave with spans in the -trace file
// under the tracer's lock.
type tracerSink struct{ t *telemetry.Tracer }

func (s tracerSink) Emit(rec []byte) error {
	s.t.EmitRaw(rec)
	return nil
}

// metricsOnce guards the process-wide /metrics route on the default mux
// (http.Handle panics on duplicates). PromHandler reads the *current*
// default registry, so one registration serves every later session.
var metricsOnce sync.Once

// Start opens the session described by the flags. stderr receives the
// debug-server address line and, at Close, the -metrics snapshot.
func (f *Flags) Start(stderr io.Writer) (*Session, error) {
	s := &Session{ctx: context.Background(), stderr: stderr, metrics: f.Metrics}
	if f.Trace != "" || f.Metrics || f.DebugAddr != "" || f.RuntimeSample > 0 || f.FlightDump != "" {
		s.reg = telemetry.NewRegistry()
		telemetry.InstallStandardHelp(s.reg)
		s.prev = telemetry.SetDefault(s.reg)
	}
	if f.FlightDump != "" {
		s.flight = telemetry.NewFlightRecorder(runtime.GOMAXPROCS(0), f.FlightEvents)
		s.flight.SetDumpPath(f.FlightDump)
		s.prevFlight = telemetry.SetFlightRecorder(s.flight)
		// While the recorder is live, SIGQUIT means "dump the ring and
		// keep running" — the kill -QUIT postmortem hook. The runtime's
		// default stack-dump-and-exit behaviour returns at Close.
		s.sigquit = make(chan os.Signal, 1)
		signal.Notify(s.sigquit, syscall.SIGQUIT)
		go func(ch chan os.Signal) {
			for range ch {
				telemetry.FlightDump("sigquit")
			}
		}(s.sigquit)
	}
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			s.rollback()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		s.traceFile = file
		s.traceBuf = bufio.NewWriter(file)
		s.tracer = telemetry.NewTracer(telemetry.WriterSink{W: s.traceBuf})
		s.ctx = telemetry.WithTracer(s.ctx, s.tracer)
	}
	if f.StrictNumerics || f.HealthLog != "" {
		w := io.Writer(stderr)
		if f.HealthLog != "" {
			file, err := os.Create(f.HealthLog)
			if err != nil {
				s.rollback()
				return nil, fmt.Errorf("-health-log: %w", err)
			}
			s.healthFile = file
			s.healthBuf = bufio.NewWriter(file)
			w = s.healthBuf
		}
		s.mon = health.New(w, f.StrictNumerics)
		s.monStrict = f.StrictNumerics
		s.prevMon = health.SetDefault(s.mon)
	}
	if f.ProfileDir != "" {
		if err := os.MkdirAll(f.ProfileDir, 0o755); err != nil {
			s.rollback()
			return nil, fmt.Errorf("-profile-dir: %w", err)
		}
		s.profileDir = f.ProfileDir
	}
	// Profiling rates are process-wide; the session restores them in
	// Close so an embedded caller's settings survive.
	if f.MutexProfile > 0 {
		s.prevMutexFrac = runtime.SetMutexProfileFraction(f.MutexProfile)
		s.mutexProfile = true
	}
	if f.BlockProfile > 0 {
		runtime.SetBlockProfileRate(f.BlockProfile)
		s.blockProfile = true
	}
	if f.RuntimeSample > 0 {
		var sink telemetry.Sink
		if s.tracer != nil {
			sink = tracerSink{s.tracer}
		}
		s.sampler = telemetry.StartRuntimeSampler(f.RuntimeSample, sink)
	}
	if f.DebugAddr != "" {
		metricsOnce.Do(func() { http.Handle("/metrics", telemetry.PromHandler{}) })
		ln, err := net.Listen("tcp", f.DebugAddr)
		if err != nil {
			s.rollback()
			return nil, fmt.Errorf("-debug-addr: %w", err)
		}
		s.ln = ln
		// The default mux carries /debug/pprof/* from the
		// net/http/pprof import, plus the Prometheus exposition
		// registered above.
		go func() { _ = http.Serve(ln, nil) }()
		fmt.Fprintf(stderr, "debug server listening on http://%s/debug/pprof/ (Prometheus at /metrics)\n", ln.Addr())
	}
	return s, nil
}

// rollback undoes partial Start work on error.
func (s *Session) rollback() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.stopFlight()
	s.restoreProfiling()
	if s.reg != nil {
		telemetry.SetDefault(s.prev)
	}
	if s.traceFile != nil {
		s.traceFile.Close()
	}
	if s.mon != nil {
		health.SetDefault(s.prevMon)
	}
	if s.healthFile != nil {
		s.healthFile.Close()
	}
}

// stopFlight detaches the SIGQUIT handler and restores the previous
// process flight recorder (usually nil, re-disabling the hot-path
// hooks). Idempotent.
func (s *Session) stopFlight() {
	if s.flight == nil {
		return
	}
	signal.Stop(s.sigquit)
	close(s.sigquit)
	telemetry.SetFlightRecorder(s.prevFlight)
	s.flight = nil
}

// restoreProfiling puts the process-wide profiling rates back the way
// Start found them.
func (s *Session) restoreProfiling() {
	if s.mutexProfile {
		runtime.SetMutexProfileFraction(s.prevMutexFrac)
		s.mutexProfile = false
	}
	if s.blockProfile {
		runtime.SetBlockProfileRate(0)
		s.blockProfile = false
	}
}

// captureProfiles writes the session's pprof profiles into -profile-dir:
// always heap, plus mutex/block when the corresponding rate was on. The
// files are plain pprof protos, ready for `go tool pprof`.
func (s *Session) captureProfiles() error {
	if s.profileDir == "" {
		return nil
	}
	names := []string{"heap"}
	if s.mutexProfile {
		names = append(names, "mutex")
	}
	if s.blockProfile {
		names = append(names, "block")
	}
	var errs []error
	for _, name := range names {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		path := filepath.Join(s.profileDir, name+".pprof")
		f, err := os.Create(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("-profile-dir: %w", err))
			continue
		}
		if err := p.WriteTo(f, 0); err != nil {
			errs = append(errs, fmt.Errorf("-profile-dir: %s: %w", name, err))
		}
		errs = append(errs, f.Close())
	}
	return errors.Join(errs...)
}

// Context returns the context engines should run under; it carries the
// session's tracer when -trace was given.
func (s *Session) Context() context.Context { return s.ctx }

// Registry returns the session's metrics registry (nil when no
// observability flag was set).
func (s *Session) Registry() *telemetry.Registry { return s.reg }

// Close flushes and closes the trace file, emits the -metrics snapshot
// to stderr, stops the debug listener, and restores the previously
// installed default registry. It returns the first error from the
// trace pipeline so silently truncated traces fail the run.
func (s *Session) Close() error {
	var errs []error
	if s.ln != nil {
		errs = append(errs, s.ln.Close())
	}
	// Stop the sampler before the trace flushes (its final record lands
	// in the trace) and capture profiles before the rates reset.
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.stopFlight()
	errs = append(errs, s.captureProfiles())
	s.restoreProfiling()
	if s.tracer != nil {
		errs = append(errs, s.tracer.Err())
	}
	if s.traceBuf != nil {
		errs = append(errs, s.traceBuf.Flush())
	}
	if s.traceFile != nil {
		errs = append(errs, s.traceFile.Close())
	}
	if s.mon != nil {
		health.SetDefault(s.prevMon)
		errs = append(errs, s.mon.Err())
		if s.healthBuf != nil {
			errs = append(errs, s.healthBuf.Flush())
		}
		if s.healthFile != nil {
			errs = append(errs, s.healthFile.Close())
		}
		// Backstop for code paths that report a violation fail-soft
		// without threading the error out: under -strict-numerics a
		// dirty monitor fails the run even if every engine returned nil.
		if s.monStrict && s.mon.Violations() > 0 {
			errs = append(errs, fmt.Errorf("strict numerics: %d numerical-health violation(s); see health log", s.mon.Violations()))
		}
	}
	if s.metrics {
		fmt.Fprintln(s.stderr, "--- metrics ---")
		errs = append(errs, s.reg.WriteText(s.stderr))
	}
	if s.reg != nil {
		telemetry.SetDefault(s.prev)
	}
	return errors.Join(errs...)
}
