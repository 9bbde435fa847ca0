package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/service"
)

// replicaState is the router's view of one replica.
type replicaState int32

const (
	// stateReady: in the hash ring, receiving traffic.
	stateReady replicaState = iota
	// stateEjected: out of the ring after consecutive probe failures;
	// probes continue and re-admission is automatic.
	stateEjected
	// stateDraining: taken out of the ring by the rolling-reload
	// orchestrator; probes observe but never transition a draining replica
	// — the orchestrator owns it until the reload step finishes.
	stateDraining
)

func (s replicaState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateEjected:
		return "ejected"
	default:
		return "draining"
	}
}

// replica is one backend `neurovec serve` process as the router tracks it.
// Counters are atomics (hot path); state, probe streaks, and the last
// reported model version are guarded by the router's membership mutex.
type replica struct {
	addr string // base URL, e.g. http://127.0.0.1:7001

	// sem bounds concurrent forwards to this replica — the bounded-queue
	// client. A full semaphore fails fast (the request fails over to the
	// next ring node) instead of queueing unboundedly in the router.
	sem chan struct{}

	inflight atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64

	// Guarded by Router.mu:
	state   replicaState
	fails   int    // consecutive probe/forward failures
	succs   int    // consecutive probe successes while ejected
	version string // model version from the last successful probe
}

// snapshot renders the replica for /fleet/status. Callers hold Router.mu.
func (rep *replica) snapshot() (state string, fails int, version string) {
	return rep.state.String(), rep.fails, rep.version
}

// ---- health probing ----

// probeLoop runs readiness probes on the configured cadence until Close.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

// probeOnce probes every replica in parallel and applies the outcomes. The
// probe target is GET /readyz: it fails both when the process is dead
// (liveness) and when the process is alive but draining or not serving the
// model (readiness), which is exactly the "should this replica be in the
// ring" question. GET /healthz stays available to operators and external
// load balancers that want pure liveness.
func (rt *Router) probeOnce() {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			version, ok := rt.probeReplica(rep)
			rt.noteProbe(rep, ok, version)
		}(rep)
	}
	wg.Wait()
	rt.recomputeVersion()
}

// probeReplica performs one GET /readyz round trip, bounded by the probe
// cadence capped at 1s.
func (rt *Router) probeReplica(rep *replica) (version string, ok bool) {
	ctx, cancel := context.WithTimeout(context.Background(), min(rt.cfg.ProbeInterval, time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/readyz", nil)
	if err != nil {
		return "", false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var body service.ReadyzResponse
	if json.NewDecoder(resp.Body).Decode(&body) != nil {
		return "", false
	}
	if resp.StatusCode != http.StatusOK {
		return body.ModelVersion, false
	}
	return body.ModelVersion, true
}

// noteProbe applies one probe outcome to the replica's state machine:
// FailAfter consecutive failures eject a ready replica, ReadyAfter
// consecutive successes re-admit an ejected one. Draining replicas record
// observations but never transition — the reload orchestrator owns them.
func (rt *Router) noteProbe(rep *replica, ok bool, version string) {
	rt.mu.Lock()
	var changed bool
	if ok {
		rep.fails = 0
		rep.version = version
		if rep.state == stateEjected {
			rep.succs++
			if rep.succs >= rt.cfg.ReadyAfter {
				rep.state = stateReady
				rep.succs = 0
				changed = true
			}
		}
	} else {
		rep.succs = 0
		rep.fails++
		rt.metrics.ProbeFailure(rep.addr)
		if rep.state == stateReady && rep.fails >= rt.cfg.FailAfter {
			rep.state = stateEjected
			rt.metrics.Ejection(rep.addr)
			changed = true
		}
	}
	if changed {
		rt.rebuildRingLocked()
	}
	rt.mu.Unlock()
	if changed {
		rt.log.Info("replica state changed", "replica", rep.addr, "state", rep.state.String())
		rt.recomputeVersion()
	}
}

// noteForwardFailure feeds a transport-level forward error into the same
// failure streak the prober uses, so a crashed replica is ejected after
// FailAfter failed requests instead of waiting out full probe cycles.
func (rt *Router) noteForwardFailure(rep *replica) { rt.noteProbe(rep, false, "") }

// setState force-sets a replica's state (the reload orchestrator's hook)
// and rebuilds the ring.
func (rt *Router) setState(rep *replica, s replicaState) {
	rt.mu.Lock()
	if rep.state != s {
		rep.state = s
		rep.fails = 0
		rep.succs = 0
		rt.rebuildRingLocked()
	}
	rt.mu.Unlock()
	rt.recomputeVersion()
}

// setVersionLocked records a replica's reported model version. Callers hold
// rt.mu.
func (rt *Router) setVersionLocked(rep *replica, version string) { rep.version = version }

// rebuildRingLocked rebuilds the hash ring from the ready replicas and
// refreshes the per-replica up gauges. Callers hold rt.mu.
func (rt *Router) rebuildRingLocked() {
	ready := make([]string, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		up := rep.state == stateReady
		if up {
			ready = append(ready, rep.addr)
		}
		rt.metrics.ReplicaUp(rep.addr, up)
	}
	rt.ring.Store(NewRing(ready))
	rt.metrics.Rebalance()
}

// recomputeVersion derives the fleet-consistent model version: the version
// every ready replica agreed on in its last probe, or "" when the fleet is
// mixed (mid-roll) or unknown (no ready replica has been probed yet). The
// shared cache tier only operates under a non-empty fleet version, which is
// what guarantees a cached response can never cross model versions.
func (rt *Router) recomputeVersion() {
	rt.mu.Lock()
	version := ""
	for _, rep := range rt.replicas {
		if rep.state != stateReady {
			continue
		}
		switch {
		case rep.version == "":
			version = ""
		case version == "":
			version = rep.version
		case version != rep.version:
			version = ""
		}
		if version == "" {
			break
		}
	}
	rt.mu.Unlock()
	rt.version.Store(version)
}

// fleetVersion returns the current fleet-consistent model version ("" when
// mixed or unknown).
func (rt *Router) fleetVersion() string {
	v, _ := rt.version.Load().(string)
	return v
}
