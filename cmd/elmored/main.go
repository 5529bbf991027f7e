// Command elmored is the persistent delay-bound service: the batch
// engine, hot-tree cache, breaker, journal, and SLO tracker behind an
// HTTP API, hardened for production load. Job specs carry their decks
// inline ("netlist"); the server opens no file a client names.
//
// Endpoints:
//
//	POST /v1/analyze   NDJSON job specs in, NDJSON result records out
//	                   (streamed per job, trailing serve_summary line).
//	                   ?batch=ID / X-Batch-ID journals the run under
//	                   -journal-dir; re-POSTing the same batch after an
//	                   interruption resumes it exactly-once.
//	POST /v1/bound     one JSON job spec in, one JSON result out.
//	GET  /healthz      readiness: 200 serving, 503 draining.
//	GET  /metrics      Prometheus exposition of the process registry.
//
// Robustness model: per-tenant token-bucket admission (X-API-Key or
// ?tenant=) sheds overload with 429/503 + Retry-After instead of
// queueing; client deadlines (X-Elmore-Deadline or ?deadline=) are
// capped by -max-deadline and propagated into per-job timeouts; a
// hot-tree LRU skips parsing for repeated nets; SIGTERM drains
// gracefully — stop admitting, finish or journal in-flight batches,
// flush the flight recorder, exit 0 — and a restart resumes journaled
// batches. SIGQUIT (with -flight-dump) dumps the flight ring without
// exiting, as in the one-shot CLIs.
//
//	elmored -addr :8080 -rate 50 -burst 100 -max-inflight 64 \
//	        -journal-dir /var/lib/elmored -slo p99=250ms \
//	        -flight-dump flight.ndjson
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"elmore/internal/batch"
	"elmore/internal/cliutil"
	"elmore/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "elmored:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("elmored", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain window after SIGTERM before in-flight batches are cancelled (journaled batches resume on restart)")
		sloSpec      = fs.String("slo", "", "request latency objectives like `p99=250ms`; published as serve.slo.* gauges")
	)
	ef := cliutil.AddEngine(fs)
	fs.Float64Var(&cfg.Rate, "rate", 0, "per-tenant sustained admissions per second (0 = unlimited)")
	fs.Float64Var(&cfg.Burst, "burst", 0, "per-tenant admission burst (0 = max(rate, 1))")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "process-wide concurrent request cap (0 = unlimited)")
	fs.IntVar(&cfg.MaxTenants, "max-tenants", 0, "bound on tracked tenant buckets (0 = 1024)")
	fs.IntVar(&cfg.TenantTrips, "tenant-breaker", 0, "cut off a tenant after `n` consecutive failed requests (0 = off)")
	fs.DurationVar(&cfg.MaxDeadline, "max-deadline", 2*time.Minute, "cap on client-requested deadlines (and the default when none is sent)")
	fs.IntVar(&cfg.MaxJobs, "max-jobs", 10000, "max spec lines per /v1/analyze request")
	fs.Int64Var(&cfg.MaxBody, "max-body", 32<<20, "max request body bytes")
	fs.IntVar(&cfg.HotTrees, "hot-trees", batch.DefaultHotTrees, "hot-tree LRU capacity: repeated nets skip parsing (0 = off)")
	fs.StringVar(&cfg.JournalDir, "journal-dir", "", "directory for per-batch resume journals (empty disables X-Batch-ID journaling)")
	cf := cliutil.Add(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.Version {
		fmt.Fprintln(stdout, cliutil.Version("elmored"))
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := ef.Validate(); err != nil {
		return err
	}
	cfg.Engine = *ef
	if cfg.Rate < 0 || cfg.Burst < 0 || cfg.MaxInFlight < 0 || cfg.MaxTenants < 0 ||
		cfg.TenantTrips < 0 || cfg.MaxDeadline < 0 || cfg.MaxJobs < 0 || cfg.MaxBody < 0 ||
		cfg.HotTrees < 0 || *drainTimeout < 0 {
		return fmt.Errorf("flag values must be >= 0")
	}
	if cfg.SLOs, err = telemetry.ParseSLOs(*sloSpec); err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return fmt.Errorf("-journal-dir: %w", err)
		}
	}

	sess, err := cf.Start(stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()

	// The one-shot CLIs leave metrics disabled (nil registry, zero cost)
	// unless an observability flag asks for them; a server exposing
	// /metrics must always have a live registry behind it.
	if telemetry.Default() == nil {
		reg := telemetry.NewRegistry()
		telemetry.InstallStandardHelp(reg)
		prev := telemetry.SetDefault(reg)
		defer telemetry.SetDefault(prev)
	}

	s := newServer(sess.Context(), cfg)
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "elmored listening on http://%s (analyze=/v1/analyze bound=/v1/bound health=/healthz metrics=/metrics)\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(stderr, "elmored: %v: draining (window %v)\n", sig, *drainTimeout)
	}

	// Graceful drain: stop admitting (healthz flips to 503, the gate
	// rejects), let in-flight batches finish — or, past the window,
	// cancel them so their journals re-queue the remainder — then flush
	// the flight recorder and exit 0. Nothing accepted is ever lost:
	// it was either streamed + journaled done, or will be re-queued.
	drainErr := s.drain(*drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	telemetry.FlightForceDump("sigterm")
	if drainErr != nil {
		fmt.Fprintf(stderr, "elmored: drain window expired; in-flight batches journaled for resume\n")
	} else {
		fmt.Fprintln(stderr, "elmored: drained clean")
	}
	return nil
}
