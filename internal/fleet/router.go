package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/diag"
	"neurovec/internal/lang"
	"neurovec/internal/service"
)

// Config configures a Router. The zero value of every optional field picks a
// sensible default; Replicas is required.
type Config struct {
	// Replicas are the backend base URLs (e.g. "http://127.0.0.1:7001") in
	// stable configuration order — the rolling-reload order.
	Replicas []string
	// VNodes is the virtual-node count per replica (<= 0: DefaultVNodes).
	VNodes int
	// ProbeInterval is the readiness-probe cadence (default 1s) and
	// ProbeTimeout bounds each probe round trip (default: ProbeInterval,
	// capped at 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter consecutive probe/forward failures eject a replica from the
	// ring (default 3); ReadyAfter consecutive probe successes re-admit it
	// (default 2).
	FailAfter  int
	ReadyAfter int
	// HedgeAfter is how long to wait on the owning replica before sending a
	// duplicate request to the next ring node (first answer wins). Zero
	// disables hedging; failures still fail over immediately.
	HedgeAfter time.Duration
	// CacheEntries sizes the shared response-cache tier (default 4096;
	// negative disables it).
	CacheEntries int
	// ReplicaInFlight bounds concurrent forwards per replica (default 64).
	// At the bound, requests fail over to the next ring node instead of
	// queueing in the router.
	ReplicaInFlight int
	// MaxRequestBytes bounds inbound request bodies (default 4 MiB — above
	// the replicas' per-file limit because the router accepts whole batches).
	MaxRequestBytes int64
	// DrainTimeout bounds how long a rolling reload waits for a draining
	// replica's in-flight requests (default 10s); ReadyTimeout bounds the
	// wait for a reloaded replica to become ready again (default 30s).
	DrainTimeout time.Duration
	ReadyTimeout time.Duration
	// Logger receives router events; nil discards them.
	Logger *slog.Logger
	// Transport overrides the forwarding transport (tests).
	Transport http.RoundTripper
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	if out.VNodes <= 0 {
		out.VNodes = DefaultVNodes
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = time.Second
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = out.ProbeInterval
		if out.ProbeTimeout > time.Second {
			out.ProbeTimeout = time.Second
		}
	}
	if out.FailAfter <= 0 {
		out.FailAfter = 3
	}
	if out.ReadyAfter <= 0 {
		out.ReadyAfter = 2
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 4096
	}
	if out.ReplicaInFlight <= 0 {
		out.ReplicaInFlight = 64
	}
	if out.MaxRequestBytes <= 0 {
		out.MaxRequestBytes = 4 << 20
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 10 * time.Second
	}
	if out.ReadyTimeout <= 0 {
		out.ReadyTimeout = 30 * time.Second
	}
	return out
}

// Router is the fleet front end: it terminates /v2/compile in all three
// request forms, shards files across replicas by consistent hash, hedges and
// fails over across ring nodes, serves a shared response-cache tier, and
// orchestrates rolling reloads. See docs/FLEET.md.
type Router struct {
	cfg      Config
	replicas []*replica // stable configuration order
	byAddr   map[string]*replica
	ring     atomic.Pointer[Ring]
	version  atomic.Value // string: fleet-consistent model version, "" = mixed/unknown
	cache    *core.Cache[[]byte]
	metrics  *Metrics
	client   *http.Client
	log      *slog.Logger
	mux      *http.ServeMux

	mu       sync.Mutex // replica state transitions + ring rebuilds
	reloadMu sync.Mutex // at most one rolling reload

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// New builds a Router over cfg.Replicas. Replicas start out ready
// (optimistically in the ring); call Start to run a synchronous first probe
// sweep and begin background probing.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	rt := &Router{
		cfg:     cfg,
		byAddr:  make(map[string]*replica, len(cfg.Replicas)),
		cache:   core.NewCache[[]byte](cfg.CacheEntries),
		metrics: NewMetrics(),
		log:     cfg.Logger,
		stop:    make(chan struct{}),
		client:  &http.Client{Transport: forwardTransport(cfg)},
	}
	rt.version.Store("")
	for _, addr := range cfg.Replicas {
		addr = strings.TrimSuffix(addr, "/")
		if rt.byAddr[addr] != nil {
			continue
		}
		rep := &replica{addr: addr, sem: make(chan struct{}, cfg.ReplicaInFlight), state: stateReady}
		rt.replicas = append(rt.replicas, rep)
		rt.byAddr[addr] = rep
	}
	rt.mu.Lock()
	rt.rebuildRingLocked()
	rt.mu.Unlock()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v2/compile", rt.instrument("/v2/compile", rt.handleCompile))
	rt.mux.HandleFunc("GET /fleet/status", rt.instrument("/fleet/status", rt.handleStatus))
	rt.mux.HandleFunc("POST /fleet/reload", rt.instrument("/fleet/reload", rt.handleReload))
	rt.mux.HandleFunc("GET /healthz", rt.instrument("/healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /readyz", rt.instrument("/readyz", rt.handleReadyz))
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// forwardTransport is the forwarding client's transport: cfg.Transport when
// set, else a copy of http.DefaultTransport that keeps ReplicaInFlight idle
// connections per replica, the most the forward semaphore lets the router
// use at once. The default keeps two, so a busy router would dial a fresh
// connection for most forwards.
func forwardTransport(cfg Config) http.RoundTripper {
	if cfg.Transport != nil {
		return cfg.Transport
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.ReplicaInFlight
	tr.MaxIdleConns = 0 // no total bound: the per-replica one is the limit
	return tr
}

// Start runs one synchronous probe sweep (so the ring and fleet version
// reflect reality before the first request) and starts the background prober.
func (rt *Router) Start() {
	rt.probeOnce()
	rt.probeWG.Add(1)
	go rt.probeLoop()
}

// Close stops the background prober and closes idle forwarding
// connections. It does not touch the replicas.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probeWG.Wait()
	rt.client.CloseIdleConnections()
}

// Metrics exposes the router's metrics surface.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// instrument mirrors the service's request plumbing at the router edge:
// X-Request-ID assignment (honoring a sane inbound header — the ID the
// replicas then receive and echo), the body limit, latency/status metrics,
// and one structured log line per request.
func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := service.RequestID(r)
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(rec, r.Body, rt.cfg.MaxRequestBytes)
		h(rec, r)
		elapsed := time.Since(started)
		rt.metrics.ObserveRequest(endpoint, rec.status, elapsed)
		lvl := rt.log.Debug
		if rec.status >= 500 {
			lvl = rt.log.Warn
		}
		lvl("request", "request_id", id, "endpoint", endpoint, "method", r.Method,
			"status", rec.status, "elapsed_ms", float64(elapsed.Microseconds())/1000)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeErrorBody renders the same error-body shape the service uses
// ({"error", "request_id"}), so fleet clients parse one format.
func (rt *Router) writeErrorBody(w http.ResponseWriter, status int, msg string) {
	payload := map[string]any{"error": msg}
	if id := w.Header().Get("X-Request-ID"); id != "" {
		payload["request_id"] = id
	}
	body, _ := json.Marshal(payload)
	writeJSON(w, status, body)
}

// ---- shard key ----

// shardKey derives the consistent-hash key for one file: the fleet model
// version plus the file's LoopID when the source parses to exactly one
// innermost loop (so single-loop requests — the dominant interactive form —
// stick to the replica whose per-loop caches already hold that loop across
// cosmetic edits), else a hash of the raw source. The version prefix
// reshuffles affinity on model change, matching the replicas' own cache
// keying.
func (rt *Router) shardKey(version string, req *api.CompileRequest) string {
	if prog, err := lang.Parse(req.Source); err == nil {
		ids := api.LoopIDs(prog)
		if len(ids) == 1 {
			for _, id := range ids {
				return version + "\x00loop\x00" + string(id)
			}
		}
	}
	sum := sha256.Sum256([]byte(req.Source))
	return version + "\x00src\x00" + hex.EncodeToString(sum[:])
}

// ---- forwarding ----

var errReplicaBusy = errors.New("fleet: replica at in-flight limit")

// sendResult is one replica's answer to a forwarded single-file request.
type sendResult struct {
	rep    *replica
	status int
	body   []byte
	err    error
}

// sendOnce forwards one single-form compile body to rep. The per-replica
// semaphore fails fast when the replica is saturated — the caller treats
// errReplicaBusy like any other failure and moves to the next ring node.
func (rt *Router) sendOnce(ctx context.Context, rep *replica, body []byte, reqID string) sendResult {
	select {
	case rep.sem <- struct{}{}:
	default:
		rt.metrics.Forward(rep.addr, "busy")
		return sendResult{rep: rep, err: errReplicaBusy}
	}
	defer func() { <-rep.sem }()
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rep.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+"/v2/compile", bytes.NewReader(body))
	if err != nil {
		return sendResult{rep: rep, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// We were canceled (a hedge raced us home, or the client left):
			// not evidence against the replica.
			return sendResult{rep: rep, err: ctx.Err()}
		}
		rep.errors.Add(1)
		rt.metrics.Forward(rep.addr, "error")
		rt.noteForwardFailure(rep)
		return sendResult{rep: rep, err: err}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return sendResult{rep: rep, err: ctx.Err()}
		}
		rep.errors.Add(1)
		rt.metrics.Forward(rep.addr, "error")
		rt.noteForwardFailure(rep)
		return sendResult{rep: rep, err: err}
	}
	if retryableStatus(resp.StatusCode) {
		rep.errors.Add(1)
		rt.metrics.Forward(rep.addr, "error")
	} else {
		rt.metrics.Forward(rep.addr, "ok")
	}
	return sendResult{rep: rep, status: resp.StatusCode, body: respBody}
}

// retryableStatus reports whether a replica status is worth failing over:
// transient serving conditions (overload, gateway errors), not request
// errors — a 400/422/409 would fail identically on every replica.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// sendHedged forwards body across nodes (the ring's preference order for the
// shard key) with the fleet's two latency defenses:
//
//   - failover: a transport error, saturated replica, or retryable status
//     immediately launches the next node;
//   - hedging: after HedgeAfter with no answer, a duplicate launches on the
//     next node anyway — first good answer wins, losers are canceled.
//
// The last result is returned when every node fails.
func (rt *Router) sendHedged(ctx context.Context, nodes []*replica, body []byte, reqID string) sendResult {
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan sendResult, len(nodes))
	launch := func(rep *replica) {
		go func() { resc <- rt.sendOnce(attemptCtx, rep, body, reqID) }()
	}
	next := 0
	launch(nodes[next])
	next++
	pending := 1
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(nodes) > 1 {
		timer := time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var last sendResult
	for {
		select {
		case res := <-resc:
			pending--
			if res.err == nil && !retryableStatus(res.status) {
				return res
			}
			last = res
			if next < len(nodes) {
				rt.metrics.Retry()
				rt.log.Debug("failover", "request_id", reqID, "from", res.rep.addr, "to", nodes[next].addr)
				launch(nodes[next])
				next++
				pending++
			} else if pending == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(nodes) {
				rt.metrics.Hedge()
				rt.log.Debug("hedge", "request_id", reqID, "to", nodes[next].addr)
				launch(nodes[next])
				next++
				pending++
			}
		case <-ctx.Done():
			return sendResult{err: ctx.Err()}
		}
	}
}

// lookupReplicas resolves the ring's preference order for key into live
// replica handles.
func (rt *Router) lookupReplicas(key string) []*replica {
	ring := rt.ring.Load()
	if ring == nil {
		return nil
	}
	addrs := ring.Lookup(key, len(rt.replicas))
	out := make([]*replica, 0, len(addrs))
	for _, a := range addrs {
		if rep := rt.byAddr[a]; rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// probeCache looks req up in the shared cache tier under the fleet version
// snapshot. key is the entry the forward may fill, "" when the tier does not
// apply (mixed or unknown version, traced request, tier disabled); cached is
// the hit's bytes, nil on a miss.
func (rt *Router) probeCache(version string, req *api.CompileRequest) (key string, cached []byte) {
	if version == "" || req.Trace || rt.cfg.CacheEntries <= 0 {
		return "", nil
	}
	polName := req.Policy
	if polName == "" {
		polName = core.DefaultPolicy
	}
	key = service.CompileCacheKey(version, polName, req)
	if cached, ok := rt.cache.Get(key); ok {
		rt.metrics.CacheHit()
		return key, cached
	}
	rt.metrics.CacheMiss()
	return key, nil
}

// compileOne routes one file: shared-cache probe, then forwardOne.
// cacheState is the X-Neurovec-Cache value ("hit", "miss", or "bypass").
//
// Cache consistency: the key embeds the fleet version snapshot taken here,
// and the store only happens when the replica's answer reports exactly that
// version. A mid-roll fleet has version "" (mixed), which disables both
// probe and store — a cached response can therefore never cross model
// versions, and mixed-version responses are never served from cache.
func (rt *Router) compileOne(ctx context.Context, req *api.CompileRequest, reqID string) (status int, body []byte, resp *api.CompileResponse, cacheState string) {
	version := rt.fleetVersion()
	key, cached := rt.probeCache(version, req)
	switch {
	case cached != nil:
		return http.StatusOK, cached, nil, "hit"
	case key != "":
		cacheState = "miss"
	default:
		cacheState = "bypass"
	}
	status, body, resp = rt.forwardOne(ctx, version, key, req, reqID)
	return status, body, resp, cacheState
}

// forwardOne sends one single-form request to the ring owner of req (hedged,
// with failover) and, when key is set, stores an error-free, untruncated
// answer of the fleet version under it. body is nil when no replica
// answered. resp is the answer decoded for that store check, nil when it was
// not decoded, so a caller that needs the record never decodes it twice.
func (rt *Router) forwardOne(ctx context.Context, version, key string, req *api.CompileRequest, reqID string) (status int, body []byte, resp *api.CompileResponse) {
	nodes := rt.lookupReplicas(rt.shardKey(version, req))
	if len(nodes) == 0 {
		return http.StatusServiceUnavailable, nil, nil
	}
	fwdBody, err := json.Marshal(req)
	if err != nil {
		return http.StatusBadRequest, nil, nil
	}
	res := rt.sendHedged(ctx, nodes, fwdBody, reqID)
	if res.err != nil {
		return http.StatusServiceUnavailable, nil, nil
	}
	if key != "" && res.status == http.StatusOK {
		var decoded api.CompileResponse
		if json.Unmarshal(res.body, &decoded) == nil {
			resp = &decoded
			if resp.Error == "" && !resp.Truncated && resp.ModelVersion == version {
				rt.cache.Put(key, res.body)
			}
		}
	}
	return res.status, res.body, resp
}

// ---- /v2/compile ----

// handleCompile dispatches on the request form, mirroring the service: an
// NDJSON content type streams, a JSON body with "requests" is a batch,
// anything else a single file.
func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		// Every line is routed independently, so a replica dying mid-stream
		// only re-routes its in-flight lines; the stream itself never breaks.
		service.StreamNDJSON(w, r, rt.streamWidth(), rt.cfg.MaxRequestBytes, rt.compileLine)
		return
	}
	reqID := w.Header().Get("X-Request-ID")
	var env struct {
		api.CompileRequest
		Requests []api.CompileRequest `json:"requests,omitempty"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		rt.writeErrorBody(w, status, "bad request body: "+err.Error())
		return
	}
	if len(env.Requests) > 0 {
		rt.handleCompileBatch(w, r, env.Version, env.Requests, reqID)
		return
	}
	req := env.CompileRequest
	if err := req.Validate(); err != nil {
		rt.writeErrorBody(w, http.StatusBadRequest, err.Error())
		return
	}
	status, body, _, cacheState := rt.compileOne(r.Context(), &req, reqID)
	if body == nil {
		rt.writeErrorBody(w, status, "fleet: no replica could serve the request")
		return
	}
	if cacheState != "" {
		w.Header().Set("X-Neurovec-Cache", cacheState)
	}
	// The replica's bytes pass through verbatim — the same body a
	// single-process `neurovec serve` would have produced, which is what the
	// byte-identity tests pin down.
	writeJSON(w, status, body)
}

// compileLine answers one streamed or batched file with a response record
// (never a bare status): router-level failures become the record's Error
// field, exactly as replica-level failures do on the service's own batch
// path.
func (rt *Router) compileLine(ctx context.Context, req *api.CompileRequest, reqID string) *api.CompileResponse {
	if err := req.Validate(); err != nil {
		return invalidRecord(req, reqID, err)
	}
	status, body, resp, _ := rt.compileOne(ctx, req, reqID)
	return lineRecord(req, reqID, status, body, resp)
}

func invalidRecord(req *api.CompileRequest, reqID string, err error) *api.CompileResponse {
	return &api.CompileResponse{Version: api.Version, File: req.File, RequestID: reqID, Error: err.Error()}
}

// lineRecord turns one single-form answer (status, body, and resp when the
// forward already decoded body) into the file's response record.
func lineRecord(req *api.CompileRequest, reqID string, status int, body []byte, resp *api.CompileResponse) *api.CompileResponse {
	if body == nil {
		return &api.CompileResponse{Version: api.Version, File: req.File, RequestID: reqID,
			Error: "fleet: no replica could serve the request"}
	}
	if resp == nil {
		resp = new(api.CompileResponse)
		if err := json.Unmarshal(body, resp); err != nil {
			return &api.CompileResponse{Version: api.Version, File: req.File, RequestID: reqID,
				Error: "fleet: bad replica response: " + err.Error()}
		}
	}
	if status != http.StatusOK && resp.Error == "" {
		// Single-form error bodies carry {"error", "diagnostics"}; lift them
		// into the record shape, preserving structured diagnostics.
		var eb struct {
			Error       string    `json:"error"`
			Diagnostics diag.List `json:"diagnostics"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			resp = &api.CompileResponse{Version: api.Version, File: req.File, Error: eb.Error, Diagnostics: eb.Diagnostics}
		} else {
			resp = &api.CompileResponse{Version: api.Version, File: req.File, Error: "fleet: replica error"}
		}
	}
	resp.RequestID = reqID
	return resp
}

// subEnvelopeBytes bounds one forwarded sub-envelope body: the replicas'
// default request-body limit, below the router's own.
const subEnvelopeBytes = service.DefaultMaxRequestBytes

// batchGroup is one sub-envelope: envelope files whose ring owner is the
// same replica, forwarded as one {"requests":[…]} body along the first
// file's preference list. Any ready replica answers any file the same way,
// so hedging and failing over the whole group is sound.
type batchGroup struct {
	nodes []*replica
	idx   []int  // envelope positions, in request order
	body  []byte // the sub-envelope, closed before sending
}

// handleCompileBatch answers a Batch envelope with one forward per owning
// replica instead of one per file. Every file is validated and probed in
// the shared cache first; the misses are grouped by ring owner into
// sub-envelopes, and the replicas' records are spliced into the answer
// verbatim. A file takes the per-file path of compileLine instead — with
// its own failover, hedging, error-body lifting and "fleet: …" messages —
// when it is traced, too large to share an envelope, in a group whose
// forward failed, or answered with an error record. The answer is
// byte-identical to json.Marshal of the api.BatchResponse compileLine would
// have assembled for every file.
func (rt *Router) handleCompileBatch(w http.ResponseWriter, r *http.Request, version int, reqs []api.CompileRequest, reqID string) {
	batch := api.Batch{Version: version, Requests: reqs}
	if err := batch.Validate(); err != nil {
		rt.writeErrorBody(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	fleetVer := rt.fleetVersion()
	records := make([][]byte, len(reqs))             // spliced replica records
	lines := make([]*api.CompileResponse, len(reqs)) // per-file records
	keys := make([]string, len(reqs))
	var fallback []int
	var groups []*batchGroup
	open := make(map[*replica]*batchGroup)
	for i := range reqs {
		req := &reqs[i]
		if err := req.Validate(); err != nil {
			lines[i] = invalidRecord(req, reqID, err)
			continue
		}
		if req.Trace {
			fallback = append(fallback, i)
			continue
		}
		key, cached := rt.probeCache(fleetVer, req)
		if cached != nil {
			lines[i] = lineRecord(req, reqID, http.StatusOK, cached, nil)
			continue
		}
		keys[i] = key
		nodes := rt.lookupReplicas(rt.shardKey(fleetVer, req))
		if len(nodes) == 0 {
			lines[i] = lineRecord(req, reqID, http.StatusServiceUnavailable, nil, nil)
			continue
		}
		line, err := json.Marshal(req)
		if err != nil || len(envelopeOpen)+len(line)+len(envelopeClose) > subEnvelopeBytes {
			fallback = append(fallback, i)
			continue
		}
		g := open[nodes[0]]
		if g != nil && len(g.body)+1+len(line)+len(envelopeClose) > subEnvelopeBytes {
			g = nil
		}
		if g == nil {
			g = &batchGroup{nodes: nodes, body: append([]byte(nil), envelopeOpen...)}
			open[nodes[0]] = g
			groups = append(groups, g)
		} else {
			g.body = append(g.body, ',')
		}
		g.body = append(g.body, line...)
		g.idx = append(g.idx, i)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		g.body = append(g.body, envelopeClose...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if failed := rt.forwardGroup(ctx, fleetVer, g, keys, records, reqID); len(failed) > 0 {
				mu.Lock()
				fallback = append(fallback, failed...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sem := make(chan struct{}, rt.streamWidth())
	for _, i := range fallback {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			status, body, resp := rt.forwardOne(ctx, fleetVer, keys[i], &reqs[i], reqID)
			lines[i] = lineRecord(&reqs[i], reqID, status, body, resp)
		}()
	}
	wg.Wait()

	for i, rec := range records {
		if rec != nil {
			continue
		}
		rec, err := json.Marshal(lines[i])
		if err != nil {
			rt.writeErrorBody(w, http.StatusInternalServerError, err.Error())
			return
		}
		records[i] = rec
	}
	writeJSON(w, http.StatusOK, spliceBatch(records))
}

// spliceBatch wraps records in the api.BatchResponse envelope. Every record
// is compact encoding/json output, so the result is the bytes json.Marshal
// would write for the decoded envelope.
func spliceBatch(records [][]byte) []byte {
	head := `{"version":` + strconv.Itoa(api.Version) + `,"responses":[`
	n := len(head) + len(records) + 2
	for _, rec := range records {
		n += len(rec)
	}
	body := make([]byte, 0, n)
	body = append(body, head...)
	for i, rec := range records {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, rec...)
	}
	return append(body, "]}"...)
}

const (
	envelopeOpen  = `{"requests":[`
	envelopeClose = `]}`
)

// forwardGroup sends one sub-envelope and files each returned record into
// records at its envelope position. It returns the positions that need the
// per-file path: all of them when the forward fails or answers with the
// wrong shape, else those whose record carries an error. The shared cache
// stores a record, minus its request_id, under the same conditions as
// forwardOne: no error, not truncated, and the fleet version.
func (rt *Router) forwardGroup(ctx context.Context, version string, g *batchGroup, keys []string, records [][]byte, reqID string) (failed []int) {
	res := rt.sendHedged(ctx, g.nodes, g.body, reqID)
	if res.err != nil || res.status != http.StatusOK {
		return g.idx
	}
	var out struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if json.Unmarshal(res.body, &out) != nil || len(out.Responses) != len(g.idx) {
		return g.idx
	}
	// The replica stamps the forwarded request ID on every record. The
	// sequence can only occur as the record's own field: inside a JSON
	// string its quotes would be escaped.
	idField, _ := json.Marshal(reqID)
	idField = append([]byte(`,"request_id":`), idField...)
	for j, rec := range out.Responses {
		i := g.idx[j]
		var head struct {
			ModelVersion string `json:"model_version"`
			Truncated    bool   `json:"truncated"`
			Error        string `json:"error"`
		}
		cut := bytes.Index(rec, idField)
		if cut < 0 || json.Unmarshal(rec, &head) != nil || head.Error != "" {
			failed = append(failed, i)
			continue
		}
		records[i] = rec
		if keys[i] != "" && !head.Truncated && head.ModelVersion == version {
			neutral := make([]byte, 0, len(rec)-len(idField))
			neutral = append(neutral, rec[:cut]...)
			rt.cache.Put(keys[i], append(neutral, rec[cut+len(idField):]...))
		}
	}
	return failed
}

// streamWidth bounds concurrently in-flight files per batch/stream request:
// enough to keep every replica's forward semaphore busy without letting one
// giant batch monopolize the fleet.
func (rt *Router) streamWidth() int {
	w := 4 * len(rt.replicas)
	if w < 4 {
		w = 4
	}
	return w
}

// ---- status, health, metrics ----

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := api.FleetStatus{Version: api.Version, ModelVersion: rt.fleetVersion(), CacheEntries: rt.cache.Len()}
	rt.mu.Lock()
	for _, rep := range rt.replicas {
		state, fails, version := rep.snapshot()
		if state == api.ReplicaReady {
			st.ReadyReplicas++
		}
		st.Replicas = append(st.Replicas, api.FleetReplica{
			Addr:                rep.addr,
			State:               state,
			ModelVersion:        version,
			ConsecutiveFailures: fails,
			InFlight:            rep.inflight.Load(),
			Requests:            rep.requests.Load(),
			Errors:              rep.errors.Load(),
		})
	}
	rt.mu.Unlock()
	body, _ := json.Marshal(&st)
	writeJSON(w, http.StatusOK, body)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body, _ := json.Marshal(map[string]string{"status": "ok"})
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz reports whether the router can serve traffic: at least one
// replica in the ring.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := 0
	rt.mu.Lock()
	for _, rep := range rt.replicas {
		if rep.state == stateReady {
			ready++
		}
	}
	rt.mu.Unlock()
	status := http.StatusOK
	state := "ready"
	if ready == 0 {
		status = http.StatusServiceUnavailable
		state = "no ready replicas"
	}
	body, _ := json.Marshal(map[string]any{"status": state, "ready_replicas": ready, "model_version": rt.fleetVersion()})
	writeJSON(w, status, body)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.metrics.WriteTo(w)
}
