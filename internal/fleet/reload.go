package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/service"
)

// ErrReloadInProgress is returned when a rolling reload is already running;
// the HTTP surface maps it to 409 Conflict.
var ErrReloadInProgress = errors.New("fleet: rolling reload already in progress")

// readyTimeout bounds a rolling reload's wait for a reloaded replica to
// report ready at the roll's target version.
const readyTimeout = 30 * time.Second

// RollingReload promotes a new checkpoint across the fleet one replica at a
// time, in configuration order, with zero dropped requests:
//
//  1. drain   — the replica leaves the ring (new traffic reroutes; the ring's
//     minimal-movement property keeps every other file's affinity), then the
//     orchestrator waits for its router-forwarded in-flight count to reach
//     zero (bounded by DrainTimeout — the replica's own reload is atomic, so
//     proceeding after the timeout degrades to zero disruption anyway);
//  2. reload  — POST /v1/reload on the replica, which re-reads its model
//     path and atomically swaps the snapshot;
//  3. verify  — the first replica's post-reload version becomes the roll's
//     target; any later replica reloading to a different version aborts the
//     roll (the replicas disagree about the checkpoint on disk);
//  4. readmit — poll the replica's /readyz until it reports ready at the
//     target version (bounded by readyTimeout), then rebuild the ring with
//     it back in.
//
// While the roll is in progress the fleet version is mixed, so the shared
// cache tier neither serves nor stores (see compileOne) — a client can
// observe either model version mid-roll, but never a cached response from
// the wrong one. After the last replica, the fleet version becomes the
// target and the cache tier resumes under the new version's keys.
//
// On a replica failure the roll stops: earlier replicas keep the new
// version, the failed replica is left ejected (probes re-admit it when it
// recovers), later replicas keep the old version, and the response reports
// every replica's outcome.
func (rt *Router) RollingReload(ctx context.Context) (*api.FleetReloadResponse, error) {
	if !rt.reloadMu.TryLock() {
		rt.metrics.Reload("busy")
		return nil, ErrReloadInProgress
	}
	defer rt.reloadMu.Unlock()
	rt.log.Info("rolling reload started", "replicas", len(rt.replicas))
	out := &api.FleetReloadResponse{Version: api.Version}
	target := ""
	for _, rep := range rt.replicas {
		entry := api.FleetReloadReplica{Addr: rep.addr}
		err := rt.reloadReplica(ctx, rep, &entry, &target)
		out.Replicas = append(out.Replicas, entry)
		if err != nil {
			rt.metrics.Reload("error")
			rt.log.Error("rolling reload aborted", "replica", rep.addr, "error", err)
			return out, err
		}
	}
	rt.version.Store(target)
	out.ModelVersion = target
	rt.metrics.Reload("ok")
	rt.log.Info("rolling reload finished", "model_version", target)
	return out, nil
}

// reloadReplica runs the drain → reload → verify → readmit sequence for one
// replica. On error the replica is left ejected for the prober to recover.
func (rt *Router) reloadReplica(ctx context.Context, rep *replica, entry *api.FleetReloadReplica, target *string) (err error) {
	rt.setState(rep, stateDraining)
	defer func() {
		if err != nil {
			entry.Error = err.Error()
			rt.setState(rep, stateEjected)
		}
	}()

	// 1. Drain: wait for router-forwarded in-flight requests to finish.
	drainDeadline := time.Now().Add(rt.cfg.DrainTimeout)
	for rep.inflight.Load() > 0 && time.Now().Before(drainDeadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}

	// 2. Reload.
	reloaded, err := rt.postReload(ctx, rep)
	if err != nil {
		return fmt.Errorf("reload %s: %w", rep.addr, err)
	}
	entry.PreviousVersion = reloaded.PreviousVersion
	entry.ModelVersion = reloaded.ModelVersion

	// 3. Verify fleet consistency: every replica must land on the same
	// checkpoint.
	if *target == "" {
		*target = reloaded.ModelVersion
	} else if reloaded.ModelVersion != *target {
		return fmt.Errorf("reload %s: version %s diverges from roll target %s",
			rep.addr, reloaded.ModelVersion, *target)
	}

	// 4. Re-admit once the replica is ready at the target version.
	readyDeadline := time.Now().Add(readyTimeout)
	for {
		if version, ok := rt.probeReplica(rep); ok && version == *target {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !time.Now().Before(readyDeadline) {
			return fmt.Errorf("reload %s: not ready at version %s within %s", rep.addr, *target, readyTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rt.mu.Lock()
	rep.state = stateReady
	rep.fails = 0
	rep.succs = 0
	rt.setVersionLocked(rep, *target)
	rt.rebuildRingLocked()
	rt.mu.Unlock()
	rt.recomputeVersion()
	rt.log.Info("replica reloaded", "replica", rep.addr,
		"previous_version", entry.PreviousVersion, "model_version", entry.ModelVersion)
	return nil
}

// postReload POSTs /v1/reload on one replica and decodes the version swap.
func (rt *Router) postReload(ctx context.Context, rep *replica) (*service.ReloadResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+"/v1/reload", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body service.ReloadResponse
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
		}
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return &body, nil
}

// handleReload serves POST /fleet/reload.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	out, err := rt.RollingReload(r.Context())
	if errors.Is(err, ErrReloadInProgress) {
		rt.writeErrorBody(w, http.StatusConflict, err.Error())
		return
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusBadGateway
	}
	body, merr := json.Marshal(out)
	if merr != nil {
		rt.writeErrorBody(w, http.StatusInternalServerError, merr.Error())
		return
	}
	writeJSON(w, status, body)
}
