package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"elmore/internal/batch"
	"elmore/internal/cliutil"
	"elmore/internal/faultinject"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/telemetry"
)

// config is the server's tuning, filled from flags in main.
type config struct {
	Engine cliutil.EngineFlags // the engine flags the -jobs CLIs share

	Rate        float64       // per-tenant admissions/second; 0 = off
	Burst       float64       // per-tenant bucket capacity
	MaxInFlight int           // process-wide concurrent requests; 0 = off
	MaxTenants  int           // bounded tenant table size
	TenantTrips int           // per-tenant breaker threshold; 0 = off
	MaxDeadline time.Duration // cap on client-requested deadlines
	MaxJobs     int           // max spec lines per /v1/analyze request
	MaxBody     int64         // max request body bytes
	HotTrees    int           // hot-tree LRU capacity; 0 = off
	JournalDir  string        // per-batch resume journals; "" = off
	SLOs        []telemetry.SLO
}

// server is the elmored HTTP state. One instance serves the process
// lifetime; per-request engines are shallow copies of its template
// sharing the breaker, each with a moment cache of its own.
type server struct {
	cfg     config
	eng     *batch.Engine // template: workers, timeout, resilience policy
	limiter *resilience.Limiter
	gate    *batch.Gate
	hot     *batch.TreeCache
	start   time.Time

	// runCtx is the server-lifetime context: request contexts derive
	// from it so a drain timeout can force-cancel every in-flight batch
	// at once.
	runCtx    context.Context
	cancelRun context.CancelFunc

	sloMu sync.Mutex
	slo   *telemetry.SLOTracker

	batchMu sync.Mutex
	batches map[string]bool // batch IDs currently journaling
}

// newServer builds the server and its lifetime context from ctx.
func newServer(ctx context.Context, cfg config) *server {
	var tenantBreaker *resilience.Breaker
	if cfg.TenantTrips > 0 {
		tenantBreaker = &resilience.Breaker{Threshold: cfg.TenantTrips}
	}
	runCtx, cancel := context.WithCancel(ctx)
	s := &server{
		cfg: cfg,
		eng: cfg.Engine.Engine(),
		limiter: &resilience.Limiter{
			Rate:        cfg.Rate,
			Burst:       cfg.Burst,
			MaxInFlight: cfg.MaxInFlight,
			MaxTenants:  cfg.MaxTenants,
			Breaker:     tenantBreaker,
		},
		gate:      &batch.Gate{},
		hot:       batch.NewTreeCache(cfg.HotTrees, "serve.hot_tree"),
		start:     time.Now(),
		runCtx:    runCtx,
		cancelRun: cancel,
		slo:       telemetry.NewSLOTracker(cfg.SLOs),
		batches:   make(map[string]bool),
	}
	if s.slo != nil {
		s.slo.Prefix = "serve"
	}
	return s
}

// handler returns the server's mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/bound", s.handleBound)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", telemetry.PromHandler{})
	return mux
}

// drain runs the graceful half of shutdown: stop admitting, wait for
// in-flight requests up to the timeout, then force-cancel whatever is
// left so journals re-queue their jobs. Returns nil when everything
// finished inside the window.
func (s *server) drain(timeout time.Duration) error {
	telemetry.C("serve.drains").Inc()
	s.gate.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.gate.Drain(ctx)
	if err != nil {
		// Stragglers: cancel the run context and give them a moment to
		// unwind through the journal path.
		s.cancelRun()
		ctx2, cancel2 := context.WithTimeout(context.Background(), timeout)
		defer cancel2()
		if derr := s.gate.Drain(ctx2); derr == nil {
			err = nil
		}
	}
	s.cancelRun()
	return err
}

// retryAfterSeconds renders d as a ceil'd positive Retry-After value.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// shed writes the admission rejection: 429 for the tenant's own rate,
// 503 for process capacity or an open tenant breaker, both with
// Retry-After.
func shed(w http.ResponseWriter, rej *resilience.RejectError) {
	telemetry.C("serve.requests_shed").Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
	status := http.StatusServiceUnavailable
	if rej.Reason == resilience.RejectRate {
		status = http.StatusTooManyRequests
	}
	httpError(w, status, rej.Error())
}

// tenantOf resolves the request's tenant: X-API-Key header, ?tenant=,
// else "anonymous".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-API-Key"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// deadlineOf parses the client deadline (X-Elmore-Deadline header or
// ?deadline=, a Go duration), capped at the configured maximum. Zero
// means "no client deadline" (the cap still applies).
func (s *server) deadlineOf(r *http.Request) (time.Duration, error) {
	tok := r.Header.Get("X-Elmore-Deadline")
	if tok == "" {
		tok = r.URL.Query().Get("deadline")
	}
	d := s.cfg.MaxDeadline
	if tok != "" {
		v, err := time.ParseDuration(tok)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("bad deadline %q: want a positive Go duration like 500ms", tok)
		}
		if s.cfg.MaxDeadline > 0 && v > s.cfg.MaxDeadline {
			v = s.cfg.MaxDeadline
		}
		d = v
	}
	return d, nil
}

// admit runs the shared front half of every API request: the
// serve.accept fault point, the drain gate, and limiter admission.
// On success the caller owns both cleanups.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (leave func(), adm *resilience.Admission, ok bool) {
	telemetry.C("serve.requests").Inc()
	if err := faultinject.Fire("serve.accept"); err != nil {
		telemetry.C("serve.requests_failed").Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
		return nil, nil, false
	}
	leave, err := s.gate.Enter()
	if err != nil {
		telemetry.C("serve.requests_shed").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining: not admitting new work")
		return nil, nil, false
	}
	telemetry.G("serve.inflight").Set(float64(s.gate.InFlight()))
	if err := faultinject.Fire("serve.admit"); err != nil {
		leave()
		telemetry.C("serve.requests_failed").Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
		return nil, nil, false
	}
	adm, err = s.limiter.Admit(tenantOf(r))
	if err != nil {
		leave()
		var rej *resilience.RejectError
		if errors.As(err, &rej) {
			shed(w, rej)
		} else {
			telemetry.C("serve.requests_failed").Inc()
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return nil, nil, false
	}
	return leave, adm, true
}

// requestCtx derives the batch context: server lifetime (so drain can
// force-cancel), client disconnect, and the request deadline.
func (s *server) requestCtx(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(s.runCtx)
	stopAfter := context.AfterFunc(r.Context(), cancel)
	if deadline > 0 {
		ctx2, cancelT := context.WithTimeout(ctx, deadline)
		return ctx2, func() { cancelT(); stopAfter(); cancel() }
	}
	return ctx, func() { stopAfter(); cancel() }
}

// requestEngine copies the template engine, tightening the per-job
// timeout to the request deadline so a slow job can never outlive its
// request and pin a worker. The copy gets a moment cache of its own,
// as a CLI run does: moments are shared within a request, and nothing
// keyed by a client's nets outlives it.
func (s *server) requestEngine(deadline time.Duration) *batch.Engine {
	eng := *s.eng
	eng.Cache = batch.NewCache()
	if deadline > 0 && (eng.Timeout <= 0 || deadline < eng.Timeout) {
		eng.Timeout = deadline
		telemetry.C("serve.deadline_truncations").Inc()
	}
	return &eng
}

// errNetFile is the per-job error for a spec (or path stage) that
// names a deck by "net". elmored opens no file a client names, so
// neither a path nor a byte of any file reaches the answer.
var errNetFile = errors.New(`elmored reads no server files: send the deck inline as "netlist" instead of naming it in "net"`)

// load is the server's TreeLoader: inline decks through the hot-tree
// cache, and errNetFile for a file reference.
func (s *server) load(net, netlist string) (*rctree.Tree, error) {
	if netlist == "" {
		return nil, errNetFile
	}
	return s.hot.Load("", netlist)
}

// batchIDPat is the allowed shape of a client batch ID: it becomes a
// journal filename, so it must not traverse paths.
var batchIDPat = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// openBatchJournal claims the request's batch ID (X-Batch-ID header or
// ?batch=) and opens its journal under -journal-dir. All-nil when the
// request did not ask for journaling.
func (s *server) openBatchJournal(r *http.Request) (jr *batch.Journal, rp *batch.Replay, release func(), err error) {
	id := r.Header.Get("X-Batch-ID")
	if id == "" {
		id = r.URL.Query().Get("batch")
	}
	if id == "" {
		return nil, nil, nil, nil
	}
	if s.cfg.JournalDir == "" {
		return nil, nil, nil, fmt.Errorf("batch %q: server started without -journal-dir", id)
	}
	if !batchIDPat.MatchString(id) || strings.Contains(id, "..") {
		return nil, nil, nil, fmt.Errorf("batch ID must match %s", batchIDPat)
	}
	s.batchMu.Lock()
	if s.batches[id] {
		s.batchMu.Unlock()
		return nil, nil, nil, fmt.Errorf("batch %q is already running", id)
	}
	s.batches[id] = true
	s.batchMu.Unlock()
	release = func() {
		s.batchMu.Lock()
		delete(s.batches, id)
		s.batchMu.Unlock()
	}
	jr, rp, err = batch.OpenJournal(filepath.Join(s.cfg.JournalDir, id+".journal"))
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	return jr, rp, release, nil
}

// flushWriter flushes the response after every NDJSON line so results
// stream to the client as jobs finish; a write error cancels the batch
// through cancel, so a hung-up client releases its workers.
type flushWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return 0, fw.err
	}
	n, err := fw.w.Write(p)
	if err == nil {
		err = fw.rc.Flush()
	}
	if err != nil {
		fw.err = err
		fw.cancel()
	}
	return n, err
}

// serveSummary is the trailing NDJSON line of a /v1/analyze response:
// the client's signal that the stream is complete (or was interrupted,
// in which case re-POSTing the same batch resumes it).
type serveSummary struct {
	Record      string `json:"record"` // "serve_summary"
	Total       int    `json:"total"`
	Emitted     int    `json:"emitted"`
	Failed      int    `json:"failed"`
	Degraded    int    `json:"degraded"`
	Skipped     int    `json:"skipped"`
	Requeued    int    `json:"requeued"`
	Interrupted bool   `json:"interrupted,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns"`
}

// observeSLO scores one finished request against the serve objectives
// and republishes the gauges. The tracker is single-goroutine by
// contract, hence the mutex.
func (s *server) observeSLO(d time.Duration, failed bool) {
	if s.slo == nil {
		return
	}
	s.sloMu.Lock()
	s.slo.Observe(d, failed)
	s.slo.Publish()
	s.sloMu.Unlock()
}

// handleAnalyze streams batch results: NDJSON specs in, NDJSON result
// records out, one trailing serve_summary line.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST NDJSON job specs to /v1/analyze")
		return
	}
	leave, adm, ok := s.admit(w, r)
	if !ok {
		return
	}
	began := time.Now()
	failed := true // flipped on the success path; feeds SLO + tenant breaker
	defer func() {
		adm.Release(failed)
		leave()
		telemetry.G("serve.inflight").Set(float64(s.gate.InFlight()))
		s.observeSLO(time.Since(began), failed)
	}()

	deadline, err := s.deadlineOf(r)
	if err != nil {
		failed = false // client error, not the tenant's breaker's business
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := faultinject.Fire("serve.decode"); err != nil {
		telemetry.C("serve.requests_failed").Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	specs, err := batch.ReadSpecs(body)
	if err != nil {
		failed = false
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err.Error())
		return
	}
	if s.cfg.MaxJobs > 0 && len(specs) > s.cfg.MaxJobs {
		failed = false
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d jobs exceed the per-request limit of %d", len(specs), s.cfg.MaxJobs))
		return
	}
	jr, rp, releaseBatch, err := s.openBatchJournal(r)
	if err != nil {
		failed = false
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	if releaseBatch != nil {
		defer releaseBatch()
	}
	if jr != nil {
		defer jr.Close()
	}

	ctx, cancel := s.requestCtx(r, deadline)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fw := &flushWriter{w: w, rc: http.NewResponseController(w), cancel: cancel}

	st, runErr := batch.RunSpecsOpts(ctx, s.requestEngine(deadline), nil, fw, batch.SpecRunOptions{
		Specs:   specs,
		Loader:  s.load,
		Journal: jr,
		Replay:  rp,
	})
	telemetry.C("serve.batches").Inc()
	telemetry.C("serve.jobs").Add(int64(st.Emitted))
	if runErr != nil {
		telemetry.C("serve.requests_failed").Inc()
	}
	// The summary goes out even on an interrupted run: everything
	// already written (and journaled) is delivered, and Interrupted
	// tells the client to re-POST the batch to resume.
	sum := serveSummary{
		Record: "serve_summary", Total: st.Total, Emitted: st.Emitted,
		Failed: st.Failed, Degraded: st.Degraded, Skipped: st.Skipped,
		Requeued: st.Requeued, Interrupted: runErr != nil,
		ElapsedNS: time.Since(began).Nanoseconds(),
	}
	b, _ := json.Marshal(sum)
	fw.Write(append(b, '\n'))
	failed = runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded)
}

// handleBound is the one-shot endpoint: one JSON job spec in, one JSON
// result record out. The same admission, deadline, and hot-tree paths
// as /v1/analyze, without streaming.
func (s *server) handleBound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST one JSON job spec to /v1/bound")
		return
	}
	leave, adm, ok := s.admit(w, r)
	if !ok {
		return
	}
	began := time.Now()
	failed := true
	defer func() {
		adm.Release(failed)
		leave()
		telemetry.G("serve.inflight").Set(float64(s.gate.InFlight()))
		s.observeSLO(time.Since(began), failed)
	}()

	deadline, err := s.deadlineOf(r)
	if err != nil {
		failed = false
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := faultinject.Fire("serve.decode"); err != nil {
		telemetry.C("serve.requests_failed").Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		failed = false
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := batch.DecodeSpec(string(body))
	if err != nil {
		failed = false
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := s.requestCtx(r, deadline)
	defer cancel()
	job := spec.JobLoader(nil, 0, s.load)
	res := s.requestEngine(deadline).Run(ctx, []batch.Job{job})
	telemetry.C("serve.jobs").Inc()
	// Encode before the header goes out: a result JSON cannot encode
	// becomes an error record, answered as a failed job.
	line, recFailed := batch.AppendResultLine(nil, res[0])
	failed = recFailed && ctx.Err() == nil
	if recFailed {
		telemetry.C("serve.requests_failed").Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	if recFailed {
		status = http.StatusUnprocessableEntity
	}
	w.WriteHeader(status)
	w.Write(line)
}

// healthz is the readiness probe: 200 while serving, 503 once draining
// (so a balancer stops routing here during shutdown), with a small
// process snapshot either way.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	draining := s.gate.Draining()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"status":         map[bool]string{false: "ok", true: "draining"}[draining],
		"inflight":       s.gate.InFlight(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"heap_bytes":     ms.HeapAlloc,
		"hot_trees":      s.hot.Len(),
	})
}
