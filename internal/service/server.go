package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/core"
	"neurovec/internal/evalharness"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/obs"
	obslog "neurovec/internal/obs/log"
	"neurovec/internal/policy"
)

// DefaultMaxRequestBytes is the request-body limit of a server whose
// Config.MaxRequestBytes is unset, and of `neurovec serve` without
// -max-body. The fleet router sizes its sub-envelopes to fit under it.
const DefaultMaxRequestBytes = 1 << 20

// Config tunes the server. The zero value of every optional field picks a
// production default.
type Config struct {
	// ModelPath is the checkpoint (written by `neurovec train -out`) to
	// serve; it is re-read on every hot-reload. Required.
	ModelPath string
	// Core overrides the base framework configuration (architecture,
	// simulator). Nil means core.DefaultConfig(). The embedding
	// configuration always comes from the checkpoint header.
	Core *core.Config
	// CacheEntries bounds the response LRU (default 1024; negative
	// disables caching).
	CacheEntries int
	// LoopCacheEntries bounds the per-loop caches (code vectors and
	// loop-pure policy decisions, keyed by checkpoint fingerprint and
	// stable LoopID; default core.DefaultLoopCacheEntries each, negative
	// disables). Unlike the response cache these survive whitespace edits
	// of the source, because LoopIDs do. /v1/eval shares them.
	LoopCacheEntries int
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pool's backlog (default 4x workers); a full
	// queue sheds load with HTTP 503.
	QueueDepth int
	// MaxRequestBytes bounds request bodies (default
	// DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// RequestTimeout bounds the compute time of one request, wired through
	// the request context: deadline-aware policies (brute) return their
	// best-so-far answer, everything else fails with 504 when the deadline
	// passes. A request's timeout_ms field may shorten (never extend) it.
	// Zero disables the server-side bound.
	RequestTimeout time.Duration
	// TrainDir is where asynchronous training jobs (POST /v1/train) write
	// their checkpoints. Empty means a temporary directory created on first
	// use.
	TrainDir string
	// MaxTrainIterations caps the iterations one training job may request
	// (default 200).
	MaxTrainIterations int
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: the profile endpoints expose internals and cost CPU, so they
	// are opt-in (`neurovec serve -pprof`).
	Pprof bool
	// Logger receives the server's structured log lines (request accounting,
	// reloads, training-job lifecycle). Nil disables logging.
	Logger *obslog.Logger
}

// model is one immutable serving snapshot; hot-reload swaps the whole
// struct atomically, so in-flight requests keep the framework they started
// with.
type model struct {
	fw       *core.Framework
	version  string
	loadedAt time.Time
}

// Server is the inference service. It implements http.Handler.
type Server struct {
	cfg     Config
	model   atomic.Pointer[model]
	pool    *Pool
	cache   *core.Cache[[]byte]
	metrics *Metrics
	mux     *http.ServeMux
	start   time.Time
	log     *obslog.Logger

	// loops memoizes per-loop state (code vectors, loop-pure decisions)
	// across requests, files and /v1/eval runs; nil when disabled. Keys
	// embed the checkpoint fingerprint, so hot-reloads need no flush.
	loops *core.LoopLRU

	// evalSem admits one corpus evaluation at a time. The harness brings
	// its own goroutine pool (up to the worker-pool width), so running
	// evals through the shared pool would stack pools and oversubscribe
	// the CPU; instead evals bypass the pool entirely and excess eval
	// requests shed with 503, leaving the latency-sensitive endpoints'
	// concurrency bound intact.
	evalSem chan struct{}

	// draining is set when the process is shutting down (or an operator
	// takes the replica out of rotation): /readyz answers 503 so routers
	// and external load balancers stop sending new work, while in-flight
	// requests and /healthz keep working.
	draining atomic.Bool

	reloadMu sync.Mutex // serializes hot-reloads
	// modelPath is the checkpoint the next reload re-reads; it starts at
	// cfg.ModelPath and moves when a training job is promoted. Guarded by
	// reloadMu.
	modelPath string

	// Training-job state: one asynchronous job runs at a time; finished jobs
	// are kept (bounded) for status polling and promotion. Guarded by
	// trainMu.
	trainMu     sync.Mutex
	trainJobs   map[string]*trainJob
	trainSeq    int64
	trainActive bool
	trainDir    string
}

// New loads the checkpoint at cfg.ModelPath and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("service: ModelPath is required")
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.LoopCacheEntries == 0 {
		cfg.LoopCacheEntries = core.DefaultLoopCacheEntries
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	s := &Server{
		cfg:       cfg,
		pool:      NewPool(cfg.Workers, cfg.QueueDepth),
		cache:     core.NewCache[[]byte](cfg.CacheEntries),
		metrics:   NewMetrics(),
		evalSem:   make(chan struct{}, 1),
		trainJobs: make(map[string]*trainJob),
		modelPath: cfg.ModelPath,
		start:     time.Now(),
		log:       cfg.Logger,
	}
	// Pool observability: queue-wait histogram plus scrape-time depth and
	// in-flight gauges, all in the same registry /metrics renders.
	s.pool.onWait = s.metrics.ObserveQueueWait
	s.pool.OnPanic(s.metrics.PoolPanic)
	reg := s.metrics.Registry()
	reg.GaugeFunc("neurovec_queue_depth", "Jobs waiting in the worker-pool queue.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc("neurovec_inflight_jobs", "Jobs currently executing on the worker pool.",
		func() float64 { return float64(s.pool.InFlight()) })
	if cfg.LoopCacheEntries > 0 {
		s.loops = core.NewLoopCache(cfg.LoopCacheEntries)
	}
	m, err := s.loadModel()
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	s.model.Store(m)
	s.metrics.SetModel(m.version, m.loadedAt)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v2/compile", s.instrument("/v2/compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/eval", s.instrument("/v1/eval", s.handleEval))
	s.mux.HandleFunc("POST /v1/eval", s.instrument("/v1/eval", s.handleEval))
	s.mux.HandleFunc("POST /v1/train", s.instrument("/v1/train", s.handleTrainStart))
	s.mux.HandleFunc("GET /v1/train", s.instrument("/v1/train", s.handleTrainList))
	s.mux.HandleFunc("GET /v1/train/{id}", s.instrument("/v1/train", s.handleTrainStatus))
	s.mux.HandleFunc("POST /v1/train/{id}/cancel", s.instrument("/v1/train", s.handleTrainCancel))
	s.mux.HandleFunc("POST /v1/train/{id}/promote", s.instrument("/v1/train", s.handleTrainPromote))
	s.mux.HandleFunc("POST /v1/reload", s.instrument("/v1/reload", s.handleReload))
	s.mux.HandleFunc("GET /v1/policies", s.instrument("/v1/policies", s.handlePolicies))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker pool and cancels any running training
// job. The server must not serve requests afterwards.
func (s *Server) Close() {
	s.trainMu.Lock()
	for _, j := range s.trainJobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.trainMu.Unlock()
	s.pool.Close()
}

// ModelVersion returns the currently served checkpoint fingerprint.
func (s *Server) ModelVersion() string { return s.model.Load().version }

// Metrics exposes the registry (for embedding the server in other mains).
func (s *Server) Metrics() *Metrics { return s.metrics }

// loadModel builds a fresh framework from the configured checkpoint.
func (s *Server) loadModel() (*model, error) { return s.loadModelFrom(s.cfg.ModelPath) }

// loadModelFrom builds a fresh framework from the checkpoint at path.
// Training checkpoints load like plain snapshots: their trailing training
// section is ignored.
func (s *Server) loadModelFrom(path string) (*model, error) {
	base := core.DefaultConfig()
	if s.cfg.Core != nil {
		base = *s.cfg.Core
	}
	fw := core.New(base)
	if err := fw.LoadModelFile(path); err != nil {
		return nil, fmt.Errorf("service: load %s: %w", path, err)
	}
	return &model{fw: fw, version: fw.ModelVersion(), loadedAt: time.Now()}, nil
}

// Reload atomically swaps in a freshly loaded checkpoint from the current
// model path (the configured one, or the last promoted training
// checkpoint). In-flight requests finish on the snapshot they started with;
// the response cache needs no flush because keys embed the version. Returns
// the previous and new versions.
func (s *Server) Reload() (previous, current string, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked(s.modelPath)
}

// ReloadFrom is Reload from an explicit checkpoint path — the promotion
// path for completed training jobs. On success subsequent reloads re-read
// the new path; on failure the previous snapshot and path keep serving.
func (s *Server) ReloadFrom(path string) (previous, current string, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked(path)
}

// reloadLocked swaps in the checkpoint at path. Callers hold reloadMu.
func (s *Server) reloadLocked(path string) (previous, current string, err error) {
	m, err := s.loadModelFrom(path)
	if err != nil {
		s.metrics.Reload(false)
		s.log.Error("model reload failed", "path", path, "error", err)
		return "", "", err
	}
	previous = s.model.Load().version
	s.model.Store(m)
	s.modelPath = path
	s.metrics.Reload(true)
	s.metrics.SetModel(m.version, m.loadedAt)
	s.log.Info("model reloaded", "previous_version", previous, "model_version", m.version, "path", path)
	return previous, m.version, nil
}

// ModelPath returns the checkpoint path the next reload re-reads.
func (s *Server) ModelPath() string {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.modelPath
}

// ---- HTTP plumbing ----

// httpError carries a status code chosen by a handler.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// statusRecorder captures the status code for metrics.
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

// instrument wraps a handler with the request-scoped plumbing every endpoint
// shares: an X-Request-ID (honoring a sane client-supplied one), a context
// armed with the per-stage latency sink so pipeline spans land in
// neurovec_stage_duration_seconds, latency/status accounting, the request
// body limit, and one structured log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		id := RequestID(r)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithRecorder(r.Context(), nil, s.metrics.StageSink()))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxRequestBytes)
		h(rec, r)
		elapsed := time.Since(started)
		s.metrics.ObserveRequest(endpoint, rec.status, elapsed)
		lvl := s.log.Debug
		if rec.status >= 500 {
			lvl = s.log.Warn
		}
		lvl("request", "request_id", id, "endpoint", endpoint, "method", r.Method,
			"status", rec.status, "elapsed_ms", float64(elapsed.Microseconds())/1000)
	}
}

// RequestID returns the client's X-Request-ID when it is short and printable,
// otherwise a fresh 8-byte random hex ID. Honoring client IDs lets a caller
// correlate its own logs with ours; the sanity bound keeps hostile headers
// out of log lines. Exported because the fleet router applies the same
// discipline at its edge before forwarding the ID to replicas.
func RequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 64 && printableASCII(id) {
		return id
	}
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError maps an error onto its HTTP status. r distinguishes a
// server-imposed deadline (504) from a client that went away (499); a nil r
// treats every context error as a client disconnect.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrNoLoops):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, policy.ErrUnknown), errors.Is(err, core.ErrBadPin):
		// Asking for a policy that does not exist — or pinning a loop the
		// program does not contain — is a malformed request.
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrNoAgent), errors.Is(err, policy.ErrUnavailable):
		// The policy exists but this serving state cannot run it (agent
		// not trained/loaded, no corpus for the NNS index): 409 Conflict.
		status = http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r != nil && r.Context().Err() == nil {
			// The client is still there: our own request timeout expired.
			status = http.StatusGatewayTimeout
		} else {
			// The client went away mid-request; 499 (nginx's "client
			// closed request") keeps routine disconnects out of the 5xx
			// rate.
			status = 499
		}
	}
	var serr *core.SemanticError
	if errors.As(err, &serr) {
		status = http.StatusUnprocessableEntity
	}
	// The request ID was stamped on the response headers by instrument();
	// echoing it in the body gives clients one correlation key for logs,
	// traces, and failures. Every endpoint shares this path.
	payload := map[string]any{"error": err.Error()}
	if serr != nil {
		// Strict-mode rejections carry the full machine-readable finding
		// list — the same JSON `neurovec check -json` prints.
		payload["diagnostics"] = serr.Diags
	}
	if id := w.Header().Get("X-Request-ID"); id != "" {
		payload["request_id"] = id
	}
	body, _ := json.Marshal(payload)
	writeJSON(w, status, body)
}

// decodeBody parses the JSON request body into dst.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
		}
		return &httpError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()}
	}
	return nil
}

// cacheKey derives the LRU key: endpoint, model version, decision policy,
// source hash and the (sorted) runtime parameters. The policy is part of the
// key because the same source yields different bodies per method — serving a
// cached rl answer to a brute request would silently A/B-corrupt a
// comparison.
func cacheKey(endpoint, version, policyName, source string, params map[string]int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00", endpoint, version, policyName)
	h.Write([]byte(source))
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "\x00%s=%d", k, params[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tryCacheHit serves a cached response if present, recording the hit or
// miss. The X-Neurovec-Cache header reports which; bodies are byte-identical
// either way.
func (s *Server) tryCacheHit(w http.ResponseWriter, key string) bool {
	body, ok := s.cache.Get(key)
	if !ok {
		s.metrics.CacheMiss()
		return false
	}
	s.metrics.CacheHit()
	w.Header().Set("X-Neurovec-Cache", "hit")
	writeJSON(w, http.StatusOK, body)
	return true
}

// uncacheable is implemented by payloads that must not enter the response
// cache — a deadline-truncated search answer depends on the requester's
// timeout, so serving it to a later, more patient client would be wrong.
type uncacheable interface {
	skipCache() bool
}

// respondFresh renders a freshly computed payload, caches it (unless the
// payload opts out), and replies.
func (s *Server) respondFresh(w http.ResponseWriter, key string, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		writeError(w, nil, err)
		return
	}
	if u, ok := payload.(uncacheable); !ok || !u.skipCache() {
		s.cache.Put(key, body)
	}
	w.Header().Set("X-Neurovec-Cache", "miss")
	writeJSON(w, http.StatusOK, body)
}

// requestCtx derives the compute context for one request: the client's
// context bounded by the server's RequestTimeout, further shortened (never
// extended) by the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	return s.computeCtx(r.Context(), timeoutMS)
}

// computeCtx is requestCtx from an explicit parent — the form batched
// compilation uses, where many compute contexts derive from one request.
func (s *Server) computeCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// serveCached implements the shared miss path: check the cache, otherwise
// run compute on the worker pool, cache the rendered response, and reply.
//
// ctx (the deadline-bounded compute context) is passed into compute only;
// the wait itself is bounded by the client's own context. A deadline-aware
// policy returns shortly *after* the deadline with its best-so-far answer —
// abandoning the wait at the deadline would throw that answer away and turn
// every truncation into a 504.
func (s *Server) serveCached(ctx context.Context, w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	if s.tryCacheHit(w, key) {
		return
	}
	var payload any
	var cerr error
	err := s.pool.Do(r.Context(), func() { payload, cerr = compute(ctx) })
	if errors.Is(err, ErrOverloaded) {
		s.metrics.PoolRejected()
	}
	s.logPanic(err)
	if err == nil {
		err = cerr
	}
	if err != nil {
		writeError(w, r, classify(err))
		return
	}
	s.respondFresh(w, key, payload)
}

// logPanic records a recovered request panic (surfaced by Pool.Do as a
// *PanicError) with its captured stack. The request itself still gets its
// 500 through the normal error path; this is the operator-facing trace.
func (s *Server) logPanic(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		s.log.Error("request panicked (recovered)", "panic", fmt.Sprint(pe.Val), "stack", string(pe.Stack))
	}
}

// classify maps parse failures onto 422 (unparseable programs are the
// client's fault); every other error type is matched directly by writeError.
func classify(err error) error {
	var perr *lang.ParseError
	if errors.As(err, &perr) {
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	var lerr *lower.Error
	if errors.As(err, &lerr) {
		// A program the frontend accepted but the lowering pass cannot
		// express (e.g. an unsupported loop form that slipped past lax
		// sema) is the request's fault, not the server's.
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return err
}

// isRequestError reports errors caused by the request itself — unparseable
// or loop-free programs, the client's deadline, a mid-request disconnect —
// rather than by the decision policy. They must not count against the
// per-policy error metric an operator alerts on.
func isRequestError(err error) bool {
	var perr *lang.ParseError
	return errors.As(err, &perr) ||
		errors.Is(err, core.ErrSemantic) ||
		errors.Is(err, core.ErrNoLoops) ||
		errors.Is(err, core.ErrBadPin) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// ---- Endpoints ----

// SweepRequest is the /v1/sweep request body.
type SweepRequest struct {
	// Source is the C program to sweep.
	Source string `json:"source"`
	// Params optionally supplies runtime values for symbolic loop bounds.
	Params map[string]int64 `json:"params,omitempty"`
	// Policy selects the decision method by registry name (see
	// GET /v1/policies) whose choice is overlaid on the grid. Empty means
	// no overlay.
	Policy string `json:"policy,omitempty"`
	// TimeoutMS bounds this request's compute time; it can shorten the
	// server's RequestTimeout but never extend it. Deadline-aware policies
	// (brute) degrade to their best-so-far answer with "truncated": true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// resolvePolicy maps a request's policy name onto a bound instance.
// fallback is the name used for an empty field ("" keeps it unset). The
// returned label is safe for metrics: client-supplied names that are not in
// the registry collapse to "unknown" so request bodies cannot mint
// unbounded label cardinality.
func resolvePolicy(m *model, name, fallback string) (label string, pol policy.Policy, err error) {
	if name == "" {
		name = fallback
	}
	if name == "" {
		return "", nil, nil
	}
	pol, err = m.fw.Policy(name)
	if errors.Is(err, policy.ErrUnknown) {
		return "unknown", nil, err
	}
	return name, pol, err
}

// SweepResponse is the /v1/sweep response body. The policy fields are only
// present when the request selected a policy: they mark the grid cell that
// method would pick.
type SweepResponse struct {
	ModelVersion   string      `json:"model_version"`
	Loop           string      `json:"loop"`
	LoopID         string      `json:"loop_id,omitempty"`
	VFs            []int       `json:"vfs"`
	IFs            []int       `json:"ifs"`
	BaselineCycles float64     `json:"baseline_cycles"`
	Speedup        [][]float64 `json:"speedup"`
	Policy         string      `json:"policy,omitempty"`
	ChosenVF       int         `json:"chosen_vf,omitempty"`
	ChosenIF       int         `json:"chosen_if,omitempty"`
	Truncated      bool        `json:"truncated,omitempty"`
}

func (r *SweepResponse) skipCache() bool { return r.Truncated }

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	m := s.model.Load()
	polName, pol, err := resolvePolicy(m, req.Policy, "")
	if err != nil {
		s.metrics.Policy(polName, false)
		writeError(w, r, err)
		return
	}
	key := cacheKey("sweep", m.version, polName, req.Source, req.Params)
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	s.serveCached(ctx, w, r, key, func(ctx context.Context) (any, error) {
		var opts []core.InferOption
		if pol != nil {
			opts = append(opts, core.WithPolicy(pol))
		}
		sw, err := m.fw.SweepSource(ctx, req.Source, req.Params, opts...)
		if polName != "" && (err == nil || !isRequestError(err)) {
			s.metrics.Policy(polName, err == nil)
		}
		if err != nil {
			return nil, err
		}
		return &SweepResponse{
			ModelVersion:   m.version,
			Loop:           sw.Loop,
			LoopID:         string(sw.ID),
			VFs:            sw.VFs,
			IFs:            sw.IFs,
			BaselineCycles: sw.BaselineCycles,
			Speedup:        sw.Speedup,
			Policy:         sw.Policy,
			ChosenVF:       sw.ChosenVF,
			ChosenIF:       sw.ChosenIF,
			Truncated:      sw.Truncated,
		}, nil
	})
}

// EvalRequest is the /v1/eval request body (POST) or query string (GET):
// corpus-scale evaluation of a policy against a baseline and the
// brute-force oracle. GET maps each field to a query parameter of the same
// name (e.g. /v1/eval?policy=rl&corpus=polybench&seed=1).
type EvalRequest struct {
	// Policy is the method under evaluation (default "rl").
	Policy string `json:"policy,omitempty"`
	// Baseline anchors speedup (default "costmodel").
	Baseline string `json:"baseline,omitempty"`
	// Corpus is a comma-separated list of built-in suites: polybench,
	// mibench, figure7, tsvc, generated (default "generated").
	Corpus string `json:"corpus,omitempty"`
	// N sizes the generated suite (default 16, capped at 256 server-side).
	N int `json:"n,omitempty"`
	// Seed drives corpus generation and stochastic policies (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Jobs bounds evaluation parallelism (capped at the worker-pool width;
	// never affects the numbers).
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMS is the per-inference budget inside the evaluation; the
	// whole request stays bounded by the server's RequestTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxEvalCorpus caps the generated-suite size a request may demand: one
// eval file costs dozens of oracle simulations, and the endpoint must not
// become a free denial-of-service lever.
const maxEvalCorpus = 256

// EvalResponse is the /v1/eval response body. Report numbers are a pure
// function of (model version, request spec): repeated calls return
// identical values — and usually identical bytes straight from the cache.
type EvalResponse struct {
	ModelVersion string              `json:"model_version"`
	Report       *evalharness.Report `json:"report"`
}

func (r *EvalResponse) skipCache() bool {
	// A deadline-truncated evaluation depends on this requester's budget;
	// serving it to a later, more patient client would be wrong.
	return r.Report != nil && r.Report.Overall.Truncated > 0
}

// decodeEvalRequest parses a GET query string or a POST JSON body.
func decodeEvalRequest(r *http.Request) (*EvalRequest, error) {
	req := &EvalRequest{}
	if r.Method == http.MethodPost {
		if err := decodeBody(r, req); err != nil {
			return nil, err
		}
	} else {
		q := r.URL.Query()
		req.Policy = q.Get("policy")
		req.Baseline = q.Get("baseline")
		req.Corpus = q.Get("corpus")
		for _, f := range []struct {
			name string
			dst  *int64
		}{
			{"seed", &req.Seed},
			{"timeout_ms", &req.TimeoutMS},
		} {
			if v := q.Get(f.name); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad %s: %v", f.name, err)}
				}
				*f.dst = n
			}
		}
		for _, f := range []struct {
			name string
			dst  *int
		}{
			{"n", &req.N},
			{"jobs", &req.Jobs},
		} {
			if v := q.Get(f.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad %s: %v", f.name, err)}
				}
				*f.dst = n
			}
		}
	}
	if req.Policy == "" {
		req.Policy = core.DefaultPolicy
	}
	if req.Baseline == "" {
		req.Baseline = "costmodel"
	}
	if req.Corpus == "" {
		req.Corpus = "generated"
	}
	if req.N <= 0 {
		req.N = 16
	}
	if req.N > maxEvalCorpus {
		return nil, &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("n=%d exceeds the per-request corpus cap of %d", req.N, maxEvalCorpus)}
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req, nil
}

// handleEval evaluates a policy over a whole built-in corpus through the
// evaluation harness — the service-side twin of `neurovec eval`, returning
// the same deterministic report (without the volatile timing block).
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	req, err := decodeEvalRequest(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	m := s.model.Load()
	// Resolve both roles up front: unknown names are the client's fault
	// (400), unavailable ones the deployment's (409) — and the metric label
	// stays bounded because unregistered names collapse to "unknown". Only
	// a failure of the evaluated policy itself counts against its error
	// metric; a bad baseline name is not the policy's fault.
	polName, _, err := resolvePolicy(m, req.Policy, core.DefaultPolicy)
	if err != nil {
		s.metrics.EvalRun(polName, false)
		writeError(w, r, err)
		return
	}
	if _, _, err := resolvePolicy(m, req.Baseline, "costmodel"); err != nil {
		writeError(w, r, err)
		return
	}
	corpus, err := evalharness.BuildCorpus(req.Corpus, req.N, req.Seed)
	if err != nil {
		writeError(w, r, &httpError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	jobs := req.Jobs
	if jobs <= 0 || jobs > s.pool.Workers() {
		jobs = s.pool.Workers()
	}

	specKey := fmt.Sprintf("%s\x00%s\x00%s\x00%d\x00%d\x00%d", req.Policy, req.Baseline, req.Corpus, req.N, req.Seed, req.TimeoutMS)
	key := cacheKey("eval", m.version, polName, specKey, nil)
	if s.tryCacheHit(w, key) {
		return
	}
	// Admission control: the harness parallelizes internally, so evals run
	// on the handler goroutine gated by evalSem (one at a time) instead of
	// occupying a pool slot while spawning a second pool's worth of work.
	select {
	case s.evalSem <- struct{}{}:
		defer func() { <-s.evalSem }()
	default:
		s.metrics.PoolRejected()
		writeError(w, r, ErrOverloaded)
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	report, err := evalharness.New(m.fw).WithLoopCache(s.loops).Run(ctx, corpus, evalharness.Options{
		Policy:   req.Policy,
		Baseline: req.Baseline,
		Jobs:     jobs,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		Seed:     req.Seed,
	})
	if err == nil || !isRequestError(err) {
		s.metrics.EvalRun(polName, err == nil)
	}
	if err != nil {
		writeError(w, r, classify(err))
		return
	}
	for _, suite := range report.Suites {
		s.metrics.EvalFiles(suite.Suite, suite.Files)
	}
	// The timing block is volatile and the response is cacheable; keep the
	// service report byte-stable like the CLI's.
	report.Timing = nil
	s.respondFresh(w, key, &EvalResponse{ModelVersion: m.version, Report: report})
}

// PolicyStatus describes one registered policy in a PoliciesResponse.
type PolicyStatus struct {
	Name      string `json:"name"`
	Available bool   `json:"available"`
	// Reason explains an unavailable policy (no trained agent, no corpus
	// for the NNS index, ...).
	Reason string `json:"reason,omitempty"`
}

// PoliciesResponse is the GET /v1/policies response body.
type PoliciesResponse struct {
	Default      string         `json:"default"`
	ModelVersion string         `json:"model_version"`
	Policies     []PolicyStatus `json:"policies"`
}

// handlePolicies lists every registered decision policy and whether the
// serving snapshot can run it — the discovery endpoint clients use before
// A/B-ing methods.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	m := s.model.Load()
	resp := &PoliciesResponse{Default: core.DefaultPolicy, ModelVersion: m.version}
	for _, name := range policy.List() {
		st := PolicyStatus{Name: name}
		p, err := m.fw.Policy(name)
		if err == nil {
			if prober, ok := p.(policy.Prober); ok {
				err = prober.Probe()
			}
		}
		if err != nil {
			st.Reason = err.Error()
		} else {
			st.Available = true
		}
		resp.Policies = append(resp.Policies, st)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// ReloadResponse is the /v1/reload response body.
type ReloadResponse struct {
	PreviousVersion string `json:"previous_version"`
	ModelVersion    string `json:"model_version"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	previous, current, err := s.Reload()
	if err != nil {
		writeError(w, r, err)
		return
	}
	body, _ := json.Marshal(&ReloadResponse{PreviousVersion: previous, ModelVersion: current})
	writeJSON(w, http.StatusOK, body)
}

// HealthResponse is the /healthz response body.
type HealthResponse struct {
	Status        string  `json:"status"`
	ModelVersion  string  `json:"model_version"`
	ModelPath     string  `json:"model_path"`
	ModelLoadedAt string  `json:"model_loaded_at"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	CacheEntries  int     `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.model.Load()
	body, _ := json.Marshal(&HealthResponse{
		Status:        "ok",
		ModelVersion:  m.version,
		ModelPath:     s.ModelPath(),
		ModelLoadedAt: m.loadedAt.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.pool.Workers(),
		CacheEntries:  s.cache.Len(),
	})
	writeJSON(w, http.StatusOK, body)
}

// SetDraining flips the drain bit: while set, GET /readyz answers 503 so
// fleet routers and external load balancers take the replica out of rotation
// before the process stops accepting work. In-flight requests are unaffected.
func (s *Server) SetDraining(v bool) {
	if s.draining.Swap(v) != v {
		s.log.Info("drain state changed", "draining", v)
	}
}

// ReadyzResponse is the GET /readyz response body (status 200 when ready,
// 503 while draining or stopping). Fleet routers parse it to learn the
// replica's serving version; the fields are stable API.
type ReadyzResponse struct {
	// Status is "ready", "draining", or "stopping".
	Status string `json:"status"`
	// ModelVersion fingerprints the currently served checkpoint.
	ModelVersion string `json:"model_version"`
}

// handleReadyz is the readiness probe: ready means a model is loaded, the
// worker pool is accepting jobs, and the server is not draining. Liveness
// (GET /healthz) stays 200 through a drain; readiness does not — that split
// is what lets a router drain a replica without killing it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m := s.model.Load()
	resp := &ReadyzResponse{Status: "ready", ModelVersion: m.version}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case s.pool.Closed():
		resp.Status = "stopping"
		status = http.StatusServiceUnavailable
	}
	body, _ := json.Marshal(resp)
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
}
