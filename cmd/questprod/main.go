// Command questprod serves the inference engine as a long-running
// HTTP/JSON service: clients create a session with an ontology, submit an
// example-set, run simple/union/top-k inference and drive the feedback
// dialogue of Algorithm 3 over plain POSTs. See DESIGN.md §service for
// the API and README.md for a curl walkthrough.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, every session context is canceled (aborting
// inference mid-search), and all session goroutines are reaped before the
// process exits.
//
// Observability (DESIGN.md §9): requests are traced into per-session span
// trees (GET /v1/sessions/{id}/trace), latency histograms and counters are
// scraped at /metrics, and every request emits one structured log record
// (-log-format selects text or JSON). -trace-log appends each finished
// root span as a JSON line to a journal file; -no-trace turns the span
// layer off entirely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"questpro/internal/service"
	"questpro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8370", "listen address")
	workers := flag.Int("workers", 0, "global inference worker budget (0 = GOMAXPROCS)")
	ttl := flag.Duration("session-ttl", service.DefaultSessionTTL, "idle session eviction TTL")
	maxSessions := flag.Int("max-sessions", service.DefaultMaxSessions, "live session cap")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain window")
	admissionWait := flag.Duration("admission-wait", service.DefaultAdmissionWait,
		"max time an inference request may queue on the worker budget before a 429 (negative = wait forever)")
	retryAfter := flag.Duration("retry-after", service.DefaultRetryAfter,
		"Retry-After hint on shed (429) responses")
	pprofAddr := flag.String("pprof-addr", "",
		"listen address for net/http/pprof (e.g. 127.0.0.1:8371; empty = profiling off)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	traceLog := flag.String("trace-log", "",
		"append finished root spans as JSON lines to this file (empty = no journal)")
	traceRing := flag.Int("trace-ring", service.DefaultTraceRing,
		"finished operation traces retained per session for /trace")
	noTrace := flag.Bool("no-trace", false, "disable span tracing (histograms and logs stay on)")
	dataDir := flag.String("data-dir", "",
		"directory for durable session snapshots; sessions survive restarts and kill -9 (empty = in-memory only)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute,
		"max duration for reading an entire request, body included (0 = unbounded)")
	writeTimeout := flag.Duration("write-timeout", 15*time.Minute,
		"max duration from request-header read to the end of the response write; bounds the slowest inference a request may hold a connection for (0 = unbounded)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute,
		"max keep-alive idle time before the server closes a connection (0 = unbounded)")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "questprod: %v\n", err)
		os.Exit(2)
	}

	var journal io.Writer
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("opening trace log", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		journal = f
	}

	var sessionStore *store.Store
	if *dataDir != "" {
		var err error
		if sessionStore, err = store.Open(*dataDir); err != nil {
			logger.Error("opening data dir", "err", err)
			os.Exit(1)
		}
	}

	// The listener comes up BEFORE the registry restores its durable
	// sessions, behind a readiness gate: /healthz answers immediately
	// (liveness), /readyz and every API route answer 503 + Retry-After
	// until the restore finishes and the real mux is swapped in. A gateway
	// probing /readyz therefore never routes a session request into a
	// half-restored process, and a supervisor sees the restarted process as
	// live while it restores its sessions.
	gate := service.NewReadyGate(*retryAfter)
	srv := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Profiling listens on its own address so the debug endpoints are never
	// reachable through the service port (and never intercepted by the API
	// mux); off unless explicitly enabled. Registration is on a private mux
	// — importing net/http/pprof for its side effect would pollute
	// http.DefaultServeMux, which this process never serves.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before serving so the "listening" record carries the RESOLVED
	// address — with "-addr 127.0.0.1:0" the kernel picks the port, and the
	// crash harness (and any supervisor) reads it from this log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(),
		"tracing", !*noTrace, "trace_log", *traceLog, "data_dir", *dataDir)

	// With -data-dir the registry restores every durable session here,
	// while the gate sheds traffic; only then does /readyz flip to 200.
	reg := service.NewRegistry(service.Config{
		TotalWorkers:   *workers,
		SessionTTL:     *ttl,
		MaxSessions:    *maxSessions,
		AdmissionWait:  *admissionWait,
		RetryAfter:     *retryAfter,
		Logger:         logger,
		TraceLog:       journal,
		TraceRing:      *traceRing,
		DisableTracing: *noTrace,
		Store:          sessionStore,
	})
	gate.Ready(service.NewServer(reg))
	if sessionStore != nil {
		logger.Info("session persistence on", "data_dir", *dataDir,
			"sessions_restored", reg.Metrics().SnapshotRestores)
	}
	logger.Info("ready", "worker_budget", reg.Budget().Size())

	select {
	case err := <-errc:
		logger.Error("server", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("drain", "err", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("pprof drain", "err", err)
		}
	}
	reg.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server", "err", err)
	}
	logger.Info("bye")
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. Unknown values are flag errors, not silent defaults.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}
