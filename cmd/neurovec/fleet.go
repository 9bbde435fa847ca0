package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neurovec/internal/fleet"
)

// cmdFleet runs the multi-replica serving tier: a consistent-hash router in
// front of N `neurovec serve` replicas, either spawned as local child
// processes (the default) or joined by address (-join). POST
// /fleet/reload rolls a new checkpoint across the replicas with zero dropped
// requests; SIGHUP triggers the same roll.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "router listen address")
	model := fs.String("model", "", "trained model snapshot the spawned replicas serve (required unless -join is given)")
	replicas := fs.Int("replicas", 3, "number of replicas to spawn")
	join := fs.String("join", "", "comma-separated replica base URLs to join instead of spawning (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
	probeInterval := fs.Duration("probe-interval", time.Second, "readiness-probe cadence")
	failAfter := fs.Int("fail-after", 3, "consecutive probe failures before a replica is ejected from the ring")
	readyAfter := fs.Int("ready-after", 2, "consecutive probe successes before an ejected replica is re-admitted")
	hedgeAfter := fs.Duration("hedge-after", 0,
		"send a duplicate request to the next ring node after this long without an answer (0 disables hedging)")
	cacheEntries := fs.Int("cache", 4096, "shared response-cache entries (negative disables the tier)")
	replicaInflight := fs.Int("replica-inflight", 64,
		"max concurrent forwards per replica; beyond it requests fail over to the next ring node")
	maxBody := fs.Int64("max-body", 4<<20, "request body size limit in bytes")
	drainTimeout := fs.Duration("drain", 10*time.Second,
		"rolling reload: how long to wait for a draining replica's in-flight requests")
	serveArgs := fs.String("serve-args", "",
		"extra space-separated flags passed to every spawned `serve` process (e.g. \"-timeout 30s -cache 2048\")")
	lopts := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lopts.logger(os.Stderr)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}

	cfg := fleet.Config{
		ProbeInterval:   *probeInterval,
		FailAfter:       *failAfter,
		ReadyAfter:      *readyAfter,
		HedgeAfter:      *hedgeAfter,
		CacheEntries:    *cacheEntries,
		ReplicaInFlight: *replicaInflight,
		MaxRequestBytes: *maxBody,
		DrainTimeout:    *drainTimeout,
		Logger:          logger,
	}

	var spawned *fleet.Spawned
	if *join != "" {
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Replicas = append(cfg.Replicas, a)
			}
		}
		if len(cfg.Replicas) == 0 {
			return fmt.Errorf("fleet: -join needs at least one replica URL")
		}
	} else {
		if *model == "" {
			return fmt.Errorf("fleet: -model is required to spawn replicas (or use -join)")
		}
		childArgs := []string{"-model", *model}
		if lopts.level != "" {
			childArgs = append(childArgs, "-log-level", lopts.level, "-log-format", lopts.format)
		}
		if *serveArgs != "" {
			childArgs = append(childArgs, strings.Fields(*serveArgs)...)
		}
		spawned, err = fleet.Spawn(fleet.SpawnConfig{N: *replicas, Args: childArgs, Logger: logger})
		if err != nil {
			return err
		}
		defer spawned.Stop(*drainTimeout)
		logger.Info("replicas spawned", "n", *replicas, "model", *model)
		if err := spawned.WaitReady(context.Background(), 2*time.Minute); err != nil {
			return err
		}
		cfg.Replicas = spawned.Addrs
	}

	rt, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	logger.Info("fleet routing", "addr", *addr, "replicas", len(cfg.Replicas))

	httpSrv := &http.Server{Addr: *addr, Handler: rt}

	// SIGHUP rolls a freshly landed checkpoint across the fleet, mirroring
	// `serve`'s single-process SIGHUP reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			// The router logs the roll outcome itself.
			_, _ = rt.RollingReload(context.Background())
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
	logger.Info("fleet shutting down", "drain", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("fleet: drain deadline exceeded: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
