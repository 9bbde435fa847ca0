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

// compileCompute runs one file through the v2 core path on the calling
// goroutine; compileFile runs it on the worker pool.
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

// compileFile answers one file of any /v2/compile form; it is the one
// per-file path behind all three, which is what keeps them from drifting. It
// validates req, resolves its policy, probes the response cache, runs the
// compile on the worker pool, and stores the answer. cache is the
// X-Neurovec-Cache value: "hit", "miss", or "bypass" for a traced request.
//
// On a hit resp is nil and body holds the cached bytes. Otherwise resp is
// the fresh answer, without a request ID, and body its encoding when the
// cache stored one (nil when the answer is traced or truncated). A failure
// is a typed error that writeError maps onto a status.
//
// Traced requests bypass the cache in both directions: a cached body
// carries no spans, and a trace describes exactly one execution. The stage
// histograms still record (the sink rides along with the trace), and the
// per-loop caches still apply, so a traced request on a warm server shows
// the cheap path it actually took.
//
// rctx bounds the wait for a worker, and rctx shortened by the server's
// and the request's timeouts bounds the compile itself. A deadline-aware
// policy returns shortly after that deadline with its best-so-far answer;
// abandoning the wait at the deadline would throw that answer away.
func (s *Server) compileFile(rctx context.Context, m *model, req *api.CompileRequest, traced bool) (resp *api.CompileResponse, body []byte, cache string, err error) {
	if err := req.Validate(); err != nil {
		return nil, nil, "", &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}
	polName, pol, err := resolvePolicy(m, req.Policy, core.DefaultPolicy)
	if err != nil {
		s.metrics.Policy(polName, false)
		return nil, nil, "", err
	}
	var key string
	if !traced {
		key = CompileCacheKey(m.version, polName, req)
		if body, ok := s.cache.Get(key); ok {
			s.metrics.CacheHit()
			return nil, body, "hit", nil
		}
		s.metrics.CacheMiss()
	}
	ctx, cancel := s.computeCtx(rctx, req.TimeoutMS)
	defer cancel()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		ctx = obs.WithRecorder(ctx, tr, s.metrics.StageSink())
	}
	// The job writes only variables of its own, never the results: Do
	// returns as soon as rctx ends, and an abandoned job may still finish
	// after compileFile has returned.
	var fresh *api.CompileResponse
	var cerr error
	err = s.pool.Do(rctx, func() { fresh, cerr = s.compileCompute(ctx, m, req, polName, pol) })
	if errors.Is(err, ErrOverloaded) {
		s.metrics.PoolRejected()
	}
	s.logPanic(err)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, "", err
	}
	if traced {
		fresh.Trace = core.TraceSpans(tr)
		return fresh, nil, "bypass", nil
	}
	// A truncated answer depends on the requester's deadline and must not be
	// served to a later, more patient client.
	if !fresh.Truncated {
		if b, err := json.Marshal(fresh); err == nil {
			s.cache.Put(key, b)
			body = b
		}
	}
	return fresh, body, "miss", nil
}

// handleCompile serves POST /v2/compile, dispatching on the request form.
// The single form answers with the cached or freshly encoded bytes, which
// carry no request ID unless the request is traced.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		m := s.model.Load()
		StreamNDJSON(w, r, s.pool.Workers()*2, s.cfg.MaxRequestBytes,
			func(ctx context.Context, req *api.CompileRequest, reqID string) *api.CompileResponse {
				return s.compileItem(ctx, m, req, reqID)
			})
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
	traced := env.Trace || r.URL.Query().Get("trace") == "1"
	resp, body, cache, err := s.compileFile(r.Context(), m, &env.CompileRequest, traced)
	if err != nil {
		writeError(w, r, err)
		return
	}
	if body == nil {
		if traced {
			resp.RequestID = w.Header().Get("X-Request-ID")
		}
		if body, err = json.Marshal(resp); err != nil {
			writeError(w, nil, err)
			return
		}
	}
	w.Header().Set("X-Neurovec-Cache", cache)
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

// compileItem answers one batched or streamed file with its response
// record. A failure becomes the record's Error field — a batch always yields
// one response per request — and reqID is stamped on every record after the
// cache interaction, so cached bytes stay request-neutral while every
// client-visible record carries the key.
func (s *Server) compileItem(ctx context.Context, m *model, req *api.CompileRequest, reqID string) *api.CompileResponse {
	resp, body, _, err := s.compileFile(ctx, m, req, req.Trace)
	if err == nil && resp == nil {
		resp = new(api.CompileResponse)
		err = json.Unmarshal(body, resp)
	}
	if err != nil {
		resp = &api.CompileResponse{Version: api.Version, File: req.File, Error: err.Error()}
		// A strict-mode semantic rejection keeps its diagnostics: batch and
		// NDJSON clients get the same machine-readable findings the single
		// form carries in its 422 error body.
		var serr *core.SemanticError
		if errors.As(err, &serr) {
			resp.Diagnostics = serr.Diags
		}
	}
	resp.RequestID = reqID
	return resp
}

// StreamNDJSON answers an NDJSON /v2/compile stream, one request per line.
// Lines are handed to compile as they arrive, at most width files in flight
// so a huge stream cannot buffer unboundedly, and the answers stream back
// one line each, in request order, as files finish. A line that is not a
// CompileRequest, or a stream that breaks (a line longer than maxLine),
// becomes an error record. compile receives the request's context and the
// X-Request-ID already stamped on w's headers, which every line shares.
// Exported because the fleet router streams through it too: one
// implementation, two tiers.
func StreamNDJSON(w http.ResponseWriter, r *http.Request, width int, maxLine int64, compile func(ctx context.Context, req *api.CompileRequest, reqID string) *api.CompileResponse) {
	// Echoing the request's ID on every line, rather than only on the header
	// a client may never surface, gives stream clients the same correlation
	// key on every response record.
	reqID := w.Header().Get("X-Request-ID")
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Response lines go out while request lines are still arriving. Without
	// full duplex, Go's HTTP/1.1 server discards the unread rest of the body
	// at the first flush, and every line after it is lost. Writers that
	// cannot do it (test recorders) hold the whole body already.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	// Commit the response headers before the first line: interactive
	// streaming clients pipeline request lines against response lines, so
	// they need the header frame immediately.
	rc.Flush()

	type slot chan *api.CompileResponse
	queue := make(chan slot, width)
	go func() {
		defer close(queue)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64*1024), int(maxLine))
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
				out <- compile(r.Context(), &req, reqID)
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
