package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neurovec/internal/core"
	"neurovec/internal/service"
)

// cmdServe runs the long-lived inference service: one trained checkpoint
// loaded once, served over HTTP/JSON until SIGINT/SIGTERM. SIGHUP (or
// POST /v1/reload) hot-reloads the checkpoint from disk without downtime.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	model := fs.String("model", "", "trained model snapshot to serve (required; see train -out)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "work queue depth before shedding load (0 = 4x workers)")
	cacheEntries := fs.Int("cache", 1024, "response cache entries (negative disables caching)")
	timeout := fs.Duration("timeout", 0,
		"per-request compute timeout (0 disables); requests may shorten it via timeout_ms")
	trainDir := fs.String("train-dir", "",
		"directory for POST /v1/train job checkpoints (default: a temp dir)")
	maxBody := fs.Int64("max-body", service.DefaultMaxRequestBytes,
		"request body size limit in bytes (applies to every endpoint, including /v2/compile batches)")
	drain := fs.Duration("drain", 10*time.Second,
		"how long SIGINT/SIGTERM waits for in-flight requests before exiting")
	loopCache := fs.Int("loop-cache", core.DefaultLoopCacheEntries,
		"per-loop cache entries (code vectors and loop-pure decisions, keyed by checkpoint and LoopID; /v1/eval shares it; negative disables)")
	pprofFlag := fs.Bool("pprof", false,
		"mount net/http/pprof under /debug/pprof/ (off by default: exposes internals)")
	lopts := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("serve: -model is required")
	}
	if *maxBody <= 0 {
		return fmt.Errorf("serve: -max-body must be positive (got %d)", *maxBody)
	}
	logger, err := lopts.logger(os.Stderr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	srv, err := service.New(service.Config{
		ModelPath:        *model,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		LoopCacheEntries: *loopCache,
		MaxRequestBytes:  *maxBody,
		RequestTimeout:   *timeout,
		TrainDir:         *trainDir,
		Pprof:            *pprofFlag,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("serving", "model", *model, "model_version", srv.ModelVersion(),
		"addr", *addr, "pprof", *pprofFlag)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// SIGHUP hot-reloads the checkpoint; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			// The server logs the reload outcome (success or failure) itself
			// through the shared structured logger; nothing to add here.
			_, _, _ = srv.Reload()
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: flip /readyz to 503 first so fleet routers and
	// external load balancers stop routing here, then stop accepting
	// connections and drain in-flight requests for up to -drain before
	// giving up and exiting.
	srv.SetDraining(true)
	logger.Info("shutting down", "drain", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("serve: drain deadline exceeded: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
