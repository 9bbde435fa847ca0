package core

import (
	"sync"

	"neurovec/internal/api"
)

// memoKey identifies one fully-cacheable PredictLoops call: same checkpoint,
// same policy, same source text, same diagnostic file attribution. Calls
// with pins, parameter overrides, or strict sema never reach the memo.
type memoKey struct {
	version string
	policy  string
	file    string
	source  string
}

// ResponseMemo is an in-process whole-response cache for PredictLoops: a hit
// returns the previously computed *api.CompileResponse without parsing,
// lowering, or simulating anything — and without allocating, which is what
// makes a cached-model decision zero-alloc in steady state.
//
// Responses served from the memo are SHARED and must be treated as
// immutable by every caller. The serving layer keeps its own byte-level
// response cache precisely because it stamps per-request fields
// (RequestID, Trace) into responses; the memo is for in-process callers —
// embedding the framework as a library, the eval harness, the bench suite.
//
// Eviction is two-generation: when the current generation fills up, it
// becomes the previous one and a fresh map starts; a hit in the previous
// generation promotes the entry.
// Safe for concurrent use.
type ResponseMemo struct {
	mu        sync.Mutex
	cap       int
	cur, prev map[memoKey]*api.CompileResponse
}

// NewResponseMemo builds a memo holding at most roughly 2*perGen responses.
// perGen <= 0 selects a small default suitable for benchmark fixtures.
func NewResponseMemo(perGen int) *ResponseMemo {
	if perGen <= 0 {
		perGen = 128
	}
	return &ResponseMemo{cap: perGen, cur: make(map[memoKey]*api.CompileResponse, perGen)}
}

func (m *ResponseMemo) get(k memoKey) (*api.CompileResponse, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.cur[k]; ok {
		return r, true
	}
	if r, ok := m.prev[k]; ok {
		// Promote so another generation turnover keeps the hot entry. The
		// steady-state hit path (entry already current) never writes.
		m.cur[k] = r
		return r, true
	}
	return nil, false
}

func (m *ResponseMemo) put(k memoKey, r *api.CompileResponse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.cur) >= m.cap {
		m.prev = m.cur
		m.cur = make(map[memoKey]*api.CompileResponse, m.cap)
	}
	m.cur[k] = r
}

// Len reports how many responses the memo currently holds (diagnostics).
func (m *ResponseMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}

// WithResponseMemo serves whole PredictLoops responses from m when the call
// is fully cacheable: a fingerprinted checkpoint is loaded (ModelVersion
// non-empty), and the call carries no pins, no parameter overrides, and no
// strict-sema flag. Responses obtained through the memo are shared across
// callers and must not be mutated. Truncated (deadline-cut) responses are
// never stored.
func WithResponseMemo(m *ResponseMemo) InferOption {
	return func(o *inferOpts) { o.memo = m }
}
