// Command seraph-server runs the Seraph Graph Stream Processing engine
// as an HTTP service (the implementation plan of the paper's Section
// 6).
//
//	seraph-server -addr :7687
//
//	# register the running-example query
//	curl -X POST localhost:7687/queries --data-binary @trick.seraph
//
//	# ingest events
//	seraph gen -workload figure1 | curl -X POST localhost:7687/events --data-binary @-
//
//	# fetch results
//	curl localhost:7687/queries/student_trick/results
//
//	# observe: Prometheus metrics, per-query latency, profiling
//	curl localhost:7687/metrics
//	curl localhost:7687/queries/student_trick
//	seraph-server -pprof &  # then: go tool pprof localhost:7687/debug/pprof/profile
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests (including streaming /events batches) drain for up to
// -shutdown-timeout before the listener is torn down.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seraph/internal/engine"
	"seraph/internal/queue"
	"seraph/internal/server"
	"seraph/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7687", "listen address")
	restore := flag.String("restore", "", "resume from a checkpoint file (see GET /checkpoint)")
	parallelism := flag.Int("parallelism", 0, "max queries evaluated concurrently (0 = GOMAXPROCS)")
	historyRetention := flag.Int("history-retention", 16, "result tables kept per query in the engine's history (0 = unlimited); GET /queries/{name}/results serves the result rings, not this history")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	maxInFlight := flag.Int("max-inflight", 0, "admission bound on due-but-unexecuted evaluation instants; pushes beyond it get 429 (0 = unlimited)")
	evalDeadline := flag.Duration("eval-deadline", 0, "shed stale evaluation instants once a query's catch-up exceeds this wall-clock budget (0 = never shed)")
	ingestQueue := flag.Int("ingest-queue", 0, "buffer POST /events in a bounded in-process queue of this capacity, drained asynchronously (0 = synchronous ingest)")
	fullPolicy := flag.String("full-policy", "reject", "full-queue policy for -ingest-queue: block, reject, or drop-oldest")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429 responses")
	deltaEval := flag.Bool("delta-eval", false, "maintain query results from window deltas instead of re-evaluating the full window (unsupported queries fall back per query; see seraph_delta_fallback_total)")
	deltaBypassRatio := flag.Float64("delta-bypass-ratio", 0.3, "churn fraction of the window above which a delta-eval round runs one full evaluation instead (see seraph_delta_bypass_total; <= 0 disables the guard)")
	mqo := flag.Bool("mqo", false, "multi-query optimization: evaluate queries with equal canonical pattern/window fingerprints as one shared group (see seraph_mqo_groups and GET /queries)")
	dataDir := flag.String("data-dir", "", "durable mode: log events and checkpoint engine state under this directory; on boot, recover from it instead of starting empty")
	fsync := flag.String("fsync", "always", "durable-mode WAL sync policy: always (no loss), interval, or never")
	checkpointEvery := flag.Int("checkpoint-every", 256, "durable mode: checkpoint the engine after this many delivered events")
	flag.Parse()

	log := newLogger(*logFormat, *logLevel)
	slog.SetDefault(log)

	opts := []engine.Option{
		engine.WithParallelism(*parallelism),
		engine.WithHistoryRetention(*historyRetention),
		engine.WithMaxInFlight(*maxInFlight),
		engine.WithEvalDeadline(*evalDeadline),
	}
	// Only append the option when the flag is set: restore-path options
	// are applied on top of the checkpoint-derived ones, and a bare
	// `-restore` run must keep the checkpointed delta-eval setting.
	if *deltaEval {
		opts = append(opts, engine.WithDeltaEval(true))
	}
	if *deltaBypassRatio != 0.3 {
		opts = append(opts, engine.WithDeltaBypassRatio(*deltaBypassRatio))
	}
	if *mqo {
		opts = append(opts, engine.WithSharedEval(true))
	}
	var srv *server.Server
	if *dataDir != "" {
		if *restore != "" {
			fatal(log, "flags", errors.New("-data-dir and -restore are mutually exclusive: durable mode recovers from its own checkpoints"))
		}
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			fatal(log, "parse -fsync", err)
		}
		qpolicy, err := queue.ParseFullPolicy(*fullPolicy)
		if err != nil {
			fatal(log, "parse -full-policy", err)
		}
		srv, err = server.OpenDurable(server.DurableConfig{
			Dir:             *dataDir,
			Fsync:           policy,
			CheckpointEvery: *checkpointEvery,
			QueueCapacity:   *ingestQueue,
			QueuePolicy:     qpolicy,
		}, opts...)
		if err != nil {
			fatal(log, "open data directory", err)
		}
		defer srv.Close()
		log.Info("durable mode enabled",
			"dir", *dataDir, "fsync", policy.String(), "checkpoint_every", *checkpointEvery)
	} else if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fatal(log, "open checkpoint", err)
		}
		srv, err = server.Restore(f, opts...)
		f.Close()
		if err != nil {
			fatal(log, "restore checkpoint", err)
		}
		log.Info("restored from checkpoint",
			"path", *restore, "queries", len(srv.Engine().Queries()))
	} else {
		srv = server.New(opts...)
	}
	srv.SetLogger(log)
	srv.SetRetryAfter(*retryAfter)
	// Durable mode already queues ingestion (capacity/policy flow through
	// DurableConfig), so only enable the in-memory queue otherwise.
	if *ingestQueue > 0 && *dataDir == "" {
		policy, err := queue.ParseFullPolicy(*fullPolicy)
		if err != nil {
			fatal(log, "parse -full-policy", err)
		}
		if err := srv.EnableIngestQueue(*ingestQueue, policy); err != nil {
			fatal(log, "enable ingest queue", err)
		}
		defer srv.Close()
		log.Info("asynchronous ingest enabled",
			"capacity", *ingestQueue, "policy", policy.String())
	}
	if *pprofFlag {
		srv.EnablePprof()
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	httpSrv := srv.HTTPServer(*addr)

	// Serve until a termination signal, then drain in-flight requests:
	// killing the listener mid-/events would lose the tail of a batch
	// the client believes it delivered.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		log.Info("seraph-server listening", "addr", *addr, "parallelism", *parallelism)
		done <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(log, "serve", err)
		}
	case <-ctx.Done():
		stop()
		log.Info("shutting down", "grace", *shutdownTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("shutdown incomplete, closing", "err", err)
			_ = httpSrv.Close()
			os.Exit(1)
		}
		log.Info("shutdown complete")
	}
}

func newLogger(format, level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h)
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
