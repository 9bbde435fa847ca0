package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/obs"
	"neurovec/internal/policy"
)

// This file is the v2 surface of the server: POST /v2/compile speaks the
// versioned per-loop wire schema of package neurovec/internal/api in three
// request forms —
//
//   - a single JSON api.CompileRequest        → api.CompileResponse
//   - a JSON api.Batch envelope {"requests"}  → api.BatchResponse (in order)
//   - an NDJSON stream (Content-Type application/x-ndjson), one request per
//     line → one response line per request, streamed back in order as each
//     file completes
//
// Batched forms shard files over the worker pool; per-file failures become
// per-response Error fields so one bad file never poisons a batch. Responses
// are cached per file (keyed by model version, policy, source, params, and
// pins), and inference runs with the server's per-loop cache armed: code
// vectors and loop-pure policy decisions are memoized under stable LoopIDs,
// so re-requests of whitespace-edited files skip the expensive work even
// when the byte-level response cache misses.

// compilePayload gives the api type the response cache's opt-out hook:
// truncated answers depend on the requester's deadline and must not be
// served to a later, more patient client.
type compilePayload struct{ *api.CompileResponse }

func (p compilePayload) skipCache() bool { return p.Truncated }

// compileEnvelope decodes both single-request and batch bodies: a body with
// a non-empty "requests" array is a Batch, anything else a CompileRequest.
type compileEnvelope struct {
	api.CompileRequest
	Requests []api.CompileRequest `json:"requests,omitempty"`
}

// CompileCacheKey derives the per-file response-cache key from the model
// version, resolved policy name, source, params, strict bit, and pins. Pins
// are part of the key in request order: two orderings of the same pins
// compute the same response but cache separately, which costs a miss, never
// a wrong answer. Exported because the fleet router's shared cache tier must
// use the exact same key discipline — one implementation, two tiers.
func CompileCacheKey(version, policyName string, req *api.CompileRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "compile\x00%s\x00%s\x00%s\x00", version, policyName, req.File)
	if req.Strict {
		// Strict and lax answers differ (422 vs annotated response); they
		// must not share cache entries.
		fmt.Fprintf(h, "strict\x00")
	}
	h.Write([]byte(req.Source))
	keys := make([]string, 0, len(req.Params))
	for k := range req.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "\x00%s=%d", k, req.Params[k])
	}
	for _, p := range req.Pins {
		fmt.Fprintf(h, "\x00pin:%s/%s=%dx%d", p.Loop, p.Label, p.VF, p.IF)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compileCompute runs one file through the v2 core path. It is the single
// compute function behind all three /v2/compile request forms, which is
// what guarantees they can never drift.
func (s *Server) compileCompute(ctx context.Context, m *model, req *api.CompileRequest, polName string, pol policy.Policy) (*api.CompileResponse, error) {
	opts := []core.InferOption{core.WithPolicy(pol)}
	if s.loops != nil {
		opts = append(opts, core.WithLoopCache(s.loops))
	}
	if len(req.Pins) > 0 {
		opts = append(opts, core.WithPins(req.Pins))
	}
	if req.Strict {
		opts = append(opts, core.WithStrictSema())
	}
	if req.File != "" {
		opts = append(opts, core.WithSourceName(req.File))
	}
	resp, err := m.fw.PredictLoops(ctx, req.Source, req.Params, opts...)
	if err == nil || !isRequestError(err) {
		s.metrics.Policy(polName, err == nil)
	}
	if err != nil {
		return nil, classify(err)
	}
	resp.File = req.File
	for _, d := range resp.Loops {
		s.metrics.CompileLoop(d.Provenance.Origin)
	}
	return resp, nil
}

// handleCompile serves POST /v2/compile, dispatching on the request form.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		s.handleCompileStream(w, r)
		return
	}
	var env compileEnvelope
	if err := decodeBody(r, &env); err != nil {
		writeError(w, r, err)
		return
	}
	m := s.model.Load()
	if len(env.Requests) > 0 {
		s.handleCompileBatch(w, r, m, &env)
		return
	}
	req := env.CompileRequest
	if err := req.Validate(); err != nil {
		writeError(w, r, &httpError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	polName, pol, err := resolvePolicy(m, req.Policy, core.DefaultPolicy)
	if err != nil {
		s.metrics.Policy(polName, false)
		writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	if req.Trace || r.URL.Query().Get("trace") == "1" {
		s.serveTracedCompile(ctx, w, r, m, &req, polName, pol)
		return
	}
	key := CompileCacheKey(m.version, polName, &req)
	s.serveCached(ctx, w, r, key, func(ctx context.Context) (any, error) {
		resp, err := s.compileCompute(ctx, m, &req, polName, pol)
		if err != nil {
			return nil, err
		}
		return compilePayload{resp}, nil
	})
}

// serveTracedCompile answers one traced compile request. Traced responses
// bypass the response cache in both directions: a cached body carries no
// spans, and a trace describes exactly one execution — serving it to another
// request would be a lie. The stage histograms still record (the sink rides
// along with the trace), and the per-loop caches still apply, so a traced
// request on a warm server shows the cheap path it actually took.
func (s *Server) serveTracedCompile(ctx context.Context, w http.ResponseWriter, r *http.Request, m *model, req *api.CompileRequest, polName string, pol policy.Policy) {
	tr := obs.NewTrace()
	ctx = obs.WithRecorder(ctx, tr, s.metrics.StageSink())
	var resp *api.CompileResponse
	var cerr error
	err := s.pool.Do(r.Context(), func() { resp, cerr = s.compileCompute(ctx, m, req, polName, pol) })
	if errors.Is(err, ErrOverloaded) {
		s.metrics.PoolRejected()
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		writeError(w, r, classify(err))
		return
	}
	resp.RequestID = w.Header().Get("X-Request-ID")
	resp.Trace = core.TraceSpans(tr)
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, nil, err)
		return
	}
	w.Header().Set("X-Neurovec-Cache", "bypass")
	writeJSON(w, http.StatusOK, body)
}

// handleCompileBatch answers a JSON Batch envelope: every file compiles
// independently on the worker pool and Responses preserves request order.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request, m *model, env *compileEnvelope) {
	batch := api.Batch{Version: env.Version, Requests: env.Requests}
	if err := batch.Validate(); err != nil {
		writeError(w, r, &httpError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	reqID := w.Header().Get("X-Request-ID")
	out := api.BatchResponse{Version: api.Version, Responses: make([]api.CompileResponse, len(env.Requests))}
	// Bound the in-flight files like the NDJSON path does: pool.Do enqueues
	// without blocking, so spawning every request at once would overflow the
	// work queue and hand spurious overload errors to large batches on an
	// otherwise idle server.
	sem := make(chan struct{}, s.pool.Workers()*2)
	var wg sync.WaitGroup
	for i := range env.Requests {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out.Responses[i] = *s.compileItem(r.Context(), m, &env.Requests[i], reqID)
		}(i)
	}
	wg.Wait()
	body, err := json.Marshal(&out)
	if err != nil {
		writeError(w, nil, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleCompileStream answers an NDJSON stream: requests are dispatched to
// the pool as lines arrive (bounded in flight, so a huge batch cannot buffer
// unboundedly) and responses stream back in request order as files finish.
func (s *Server) handleCompileStream(w http.ResponseWriter, r *http.Request) {
	m := s.model.Load()
	// Every line of the stream shares the request's X-Request-ID — the one
	// instrument() stamped on the response headers, which prefers a sane
	// inbound header over generating a fresh ID. Echoing it per line (rather
	// than regenerating, or only on the header the client may never surface)
	// gives batch clients the same correlation key on every response record.
	reqID := w.Header().Get("X-Request-ID")
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Response lines go out while request lines are still arriving. Without
	// full duplex, Go's HTTP/1.1 server discards the unread rest of the body
	// at the first flush, and every line after it is lost. Writers that
	// cannot do it (test recorders) hold the whole body already.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	type slot chan *api.CompileResponse
	queue := make(chan slot, s.pool.Workers()*2)
	go func() {
		defer close(queue)
		sc := bufio.NewScanner(r.Body)
		maxLine := int(s.cfg.MaxRequestBytes)
		sc.Buffer(make([]byte, 64*1024), maxLine)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			lineCopy := append([]byte(nil), line...)
			out := make(slot, 1)
			queue <- out // backpressure before spawning work
			go func() {
				var req api.CompileRequest
				dec := json.NewDecoder(bytes.NewReader(lineCopy))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					out <- &api.CompileResponse{Version: api.Version, RequestID: reqID, Error: "bad request line: " + err.Error()}
					return
				}
				out <- s.compileItem(r.Context(), m, &req, reqID)
			}()
		}
		if err := sc.Err(); err != nil {
			out := make(slot, 1)
			out <- &api.CompileResponse{Version: api.Version, RequestID: reqID, Error: "bad request stream: " + err.Error()}
			queue <- out
		}
	}()

	enc := json.NewEncoder(w)
	for out := range queue {
		enc.Encode(<-out) // Encode appends the NDJSON newline
		rc.Flush()
	}
}

// compileItem compiles one batched file. Failures become the response's
// Error field — a batch always yields one response per request — and cached
// non-truncated responses are served and stored per file. reqID is echoed on
// every response after the cache interaction, so cached bytes stay
// request-neutral while every client-visible record carries the key.
func (s *Server) compileItem(rctx context.Context, m *model, req *api.CompileRequest, reqID string) *api.CompileResponse {
	fail := func(err error) *api.CompileResponse {
		resp := &api.CompileResponse{Version: api.Version, File: req.File, RequestID: reqID, Error: err.Error()}
		// A strict-mode semantic rejection keeps its diagnostics: batch and
		// NDJSON clients get the same machine-readable findings the single
		// form carries in its 422 error body.
		var serr *core.SemanticError
		if errors.As(err, &serr) {
			resp.Diagnostics = serr.Diags
		}
		return resp
	}
	if err := req.Validate(); err != nil {
		return fail(err)
	}
	polName, pol, err := resolvePolicy(m, req.Policy, core.DefaultPolicy)
	if err != nil {
		s.metrics.Policy(polName, false)
		return fail(err)
	}
	key := CompileCacheKey(m.version, polName, req)
	// Traced items bypass the cache entirely (neither hit nor store): a
	// cached body carries no spans and a trace describes one execution.
	if !req.Trace {
		if body, ok := s.cache.Get(key); ok {
			var resp api.CompileResponse
			if json.Unmarshal(body, &resp) == nil {
				s.metrics.CacheHit()
				resp.RequestID = reqID
				return &resp
			}
		}
		s.metrics.CacheMiss()
	}
	ctx, cancel := s.computeCtx(rctx, req.TimeoutMS)
	defer cancel()
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace()
		ctx = obs.WithRecorder(ctx, tr, s.metrics.StageSink())
	}
	var resp *api.CompileResponse
	var cerr error
	err = s.pool.Do(rctx, func() { resp, cerr = s.compileCompute(ctx, m, req, polName, pol) })
	if errors.Is(err, ErrOverloaded) {
		s.metrics.PoolRejected()
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		resp.Trace = core.TraceSpans(tr)
		resp.RequestID = reqID
		return resp
	}
	if !resp.Truncated {
		// Cache before stamping the request ID: the stored bytes must stay
		// request-neutral so a later hit can carry its own ID.
		if body, err := json.Marshal(resp); err == nil {
			s.cache.Put(key, body)
		}
	}
	resp.RequestID = reqID
	return resp
}
