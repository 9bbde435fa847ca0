// Package api is the versioned wire schema of the NeuroVectorizer
// compilation service — one set of request/response types shared verbatim by
// the HTTP layer (POST /v2/compile), the CLI (annotate/brute/sweep -json),
// and the evaluation harness, so the three surfaces cannot drift.
//
// The schema is loop-granular, mirroring how the paper frames vectorization:
// an agent makes an independent (VF, IF) decision per loop over a shared
// embedding. Every decision therefore addresses a loop by a stable LoopID —
// a content+position hash that survives whitespace and comment edits — and
// carries its own provenance (which policy decided, under which model
// version, whether a deadline truncated the search). Clients use the same
// IDs to pin individual loops to explicit factors and to batch many files in
// one round trip.
//
// Version history:
//
//	v1  whole-file, layer-local request/response structs (/v1/annotate,
//	    /v1/embed, /v1/sweep). /v1/annotate and /v1/embed are retired;
//	    /v1/sweep keeps its own request/response in package service.
//	v2  this package: per-loop decisions, stable LoopIDs, pins, batching.
package api

import (
	"fmt"

	"neurovec/internal/diag"
)

// Version is the wire-schema version this package defines. Requests may
// state it explicitly; zero means "current".
const Version = 2

// Pin forces one loop to explicit factors, bypassing the decision policy.
// The loop is addressed by LoopID (preferred: stable across whitespace
// edits) or, when Loop is empty, by parser label. A pin naming a loop the
// source does not contain is an error, not a silent no-op.
type Pin struct {
	// Loop is the stable LoopID of the pinned loop (see LoopIDs).
	Loop LoopID `json:"loop_id,omitempty"`
	// Label addresses the loop by parser label (L0, L1, ...) when Loop is
	// empty — convenient for hand-written requests against a known file.
	Label string `json:"label,omitempty"`
	// VF and IF are the forced factors; both must be drawn from the target
	// architecture's action space.
	VF int `json:"vf"`
	IF int `json:"if"`
}

// Addr renders the pin's loop address for diagnostics.
func (p Pin) Addr() string {
	if p.Loop != "" {
		return string(p.Loop)
	}
	return p.Label
}

// Origin values for Provenance.Origin.
const (
	// OriginPolicy marks a decision computed by the named policy (possibly
	// served from a per-loop decision cache; the origin is who decided, not
	// where the bytes came from).
	OriginPolicy = "policy"
	// OriginPin marks a decision forced by a request pin.
	OriginPin = "pin"
)

// Provenance records where one loop's decision came from.
type Provenance struct {
	// Origin is OriginPolicy or OriginPin.
	Origin string `json:"origin"`
	// Policy names the decision method (empty for pinned loops).
	Policy string `json:"policy,omitempty"`
	// ModelVersion fingerprints the checkpoint the framework served this
	// decision under (empty for pins, and when no checkpoint is loaded).
	ModelVersion string `json:"model_version,omitempty"`
	// Truncated reports that a deadline cut the policy's search short and
	// the factors are its best answer so far.
	Truncated bool `json:"truncated,omitempty"`
}

// Decision is one loop's vectorization decision — the per-loop unit every
// v2 surface (HTTP, CLI, eval reports) speaks in.
type Decision struct {
	// Loop is the stable content+position identity of the decided loop.
	Loop LoopID `json:"loop_id"`
	// Label is the parser's positional label (L0, L1, ...): stable within
	// one parse, not across edits. Func names the containing function.
	Label string `json:"label"`
	Func  string `json:"func"`
	// VF and IF are the chosen vectorization and interleaving factors.
	VF int `json:"vf"`
	IF int `json:"if"`
	// Cycles is the simulated program cycle count with only this loop
	// switched from the baseline decision to (VF, IF); PredictedSpeedup is
	// the request's baseline cycles over Cycles.
	Cycles           float64 `json:"cycles"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// Provenance records who decided and under what conditions.
	Provenance Provenance `json:"provenance"`
}

// CompileRequest asks for per-loop vectorization decisions on one source
// file. It is the body of POST /v2/compile (single form), one line of an
// NDJSON batch, and one element of a Batch envelope.
type CompileRequest struct {
	// Version is the wire-schema version the client speaks; 0 means
	// current. Anything other than 0 or Version is rejected.
	Version int `json:"version,omitempty"`
	// File is an optional client-chosen name echoed back in the response —
	// how batch clients correlate streamed responses with inputs.
	File string `json:"file,omitempty"`
	// Source is the C program to compile.
	Source string `json:"source"`
	// Params optionally supplies runtime values for symbolic loop bounds.
	Params map[string]int64 `json:"params,omitempty"`
	// Policy selects the decision method by registry name; empty means the
	// server's default (the trained agent).
	Policy string `json:"policy,omitempty"`
	// Pins force individual loops to explicit factors; unpinned loops are
	// decided by the policy.
	Pins []Pin `json:"pins,omitempty"`
	// TimeoutMS bounds this request's compute time; it can shorten the
	// server's timeout but never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks for per-stage span timings in the response (the body form
	// of the ?trace=1 query parameter). Traced requests bypass the response
	// cache, so leave it off in production steady state.
	Trace bool `json:"trace,omitempty"`
	// Strict rejects sources with error-severity semantic diagnostics
	// (HTTP 422, diagnostics in the error body) instead of compiling them.
	// Lax mode — the default — compiles anyway and reports the diagnostics
	// in the response's Diagnostics field.
	Strict bool `json:"strict,omitempty"`
}

// Validate rejects requests this schema version cannot serve.
func (r *CompileRequest) Validate() error {
	if r.Version != 0 && r.Version != Version {
		return fmt.Errorf("api: unsupported version %d (this server speaks version %d)", r.Version, Version)
	}
	if r.Source == "" {
		return fmt.Errorf("api: source is required")
	}
	for _, p := range r.Pins {
		if p.Loop == "" && p.Label == "" {
			return fmt.Errorf("api: pin has neither loop_id nor label")
		}
		if p.VF < 1 || p.IF < 1 {
			return fmt.Errorf("api: pin %s: vf and if must be >= 1", p.Addr())
		}
	}
	return nil
}

// CompileResponse is the per-file answer: one Decision per innermost loop,
// the annotated source, and whole-program cycle accounting.
type CompileResponse struct {
	// Version is the wire-schema version of this response (always Version).
	Version int `json:"version"`
	// File echoes the request's File.
	File string `json:"file,omitempty"`
	// ModelVersion fingerprints the serving checkpoint; Policy names the
	// decision method that handled unpinned loops.
	ModelVersion string `json:"model_version,omitempty"`
	Policy       string `json:"policy"`
	// Truncated reports that at least one loop's search was cut short.
	Truncated bool `json:"truncated,omitempty"`
	// Annotated is the source re-printed with every decision's pragma
	// injected (the paper's Figure 4 artifact).
	Annotated string `json:"annotated,omitempty"`
	// Loops carries one Decision per innermost loop, in source order.
	Loops []Decision `json:"loops"`
	// BaselineCycles simulates the baseline cost model everywhere;
	// PredictedCycles applies every decision at once; Speedup is their
	// ratio.
	BaselineCycles  float64 `json:"baseline_cycles"`
	PredictedCycles float64 `json:"predicted_cycles"`
	Speedup         float64 `json:"speedup"`
	// Error is set instead of the result fields when a batched request
	// failed; the envelope keeps one response per request either way.
	Error string `json:"error,omitempty"`
	// RequestID echoes the X-Request-ID the serving layer assigned (or the
	// client supplied) — the correlation key across log lines, traces, and
	// error bodies. Empty when the response was not produced by the service.
	RequestID string `json:"request_id,omitempty"`
	// Trace carries per-stage span timings when the request asked for them
	// (Trace field or ?trace=1). Spans are in start order; Depth expresses
	// nesting (the root "compile" span is depth 0).
	Trace []TraceSpan `json:"trace,omitempty"`
	// Diagnostics carries the semantic findings for the file in
	// deterministic order (per-file diagnostics have an empty loop field;
	// loop-scoped ones carry the loop's parser label). In lax mode — the
	// default — error diagnostics appear here alongside a best-effort
	// compile; in strict mode they arrive in the 422 error body instead.
	Diagnostics diag.List `json:"diagnostics,omitempty"`
}

// TraceSpan is one timed pipeline stage of a traced compile request.
// Timestamps are microseconds: StartMicros is the span's offset from the
// start of request processing, DurationMicros its elapsed time.
type TraceSpan struct {
	// Name is the stage ("parse", "lower", "embed", "decide", "sim", ...);
	// Detail optionally narrows it to a specific unit, e.g. a loop label.
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// StartMicros and DurationMicros position the span on the request
	// timeline, in microseconds.
	StartMicros    int64 `json:"start_us"`
	DurationMicros int64 `json:"duration_us"`
	// Depth is the span's nesting level; 0 is the root.
	Depth int `json:"depth"`
}

// Batch is the multi-file envelope of POST /v2/compile: requests are
// compiled independently (sharded over the server's worker pool) and the
// response preserves order.
type Batch struct {
	// Version is the wire-schema version; 0 means current.
	Version int `json:"version,omitempty"`
	// Requests are the files to compile, answered in order.
	Requests []CompileRequest `json:"requests"`
}

// Validate rejects envelopes this schema version cannot serve.
func (b *Batch) Validate() error {
	if b.Version != 0 && b.Version != Version {
		return fmt.Errorf("api: unsupported version %d (this server speaks version %d)", b.Version, Version)
	}
	if len(b.Requests) == 0 {
		return fmt.Errorf("api: batch has no requests")
	}
	return nil
}

// BatchResponse answers a Batch envelope: Responses[i] answers Requests[i].
type BatchResponse struct {
	Version   int               `json:"version"`
	Responses []CompileResponse `json:"responses"`
}
