package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/obs"
	obslog "neurovec/internal/obs/log"
)

// These tests cover the observability layer at the service boundary: request
// IDs, the ?trace=1 span block, per-stage latency histograms on /metrics,
// promtool-style exposition hygiene, and the opt-in pprof mount.

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	rec, _ := do(t, s, "GET", "/healthz", nil)
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	// A sane client-supplied ID is honored; it also lands in error bodies.
	req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader(`{"source":""}`))
	req.Header.Set("X-Request-ID", "client-abc-123")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("client request ID not honored: %q", got)
	}
	if rr.Code == http.StatusOK {
		t.Fatalf("empty source unexpectedly compiled: %s", rr.Body.String())
	}
	var errBody map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody["request_id"] != "client-abc-123" {
		t.Fatalf("error body missing request_id: %v", errBody)
	}

	// A hostile header (too long / non-printable) is replaced.
	req2 := httptest.NewRequest("GET", "/healthz", nil)
	req2.Header.Set("X-Request-ID", "bad\nid")
	rr2 := httptest.NewRecorder()
	s.ServeHTTP(rr2, req2)
	if got := rr2.Header().Get("X-Request-ID"); got == "bad\nid" || got == "" {
		t.Fatalf("hostile request ID not replaced: %q", got)
	}
}

func TestCompileTraceReturnsPipelineSpans(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	rec, body := do(t, s, "POST", "/v2/compile?trace=1", api.CompileRequest{Source: src})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("?trace=1 returned no spans")
	}
	if resp.RequestID == "" || resp.RequestID != rec.Header().Get("X-Request-ID") {
		t.Fatalf("trace response request_id %q != header %q", resp.RequestID, rec.Header().Get("X-Request-ID"))
	}
	byName := map[string]bool{}
	for _, sp := range resp.Trace {
		byName[sp.Name] = true
		if sp.DurationMicros < 0 || sp.StartMicros < 0 {
			t.Errorf("span %s has negative timing: %+v", sp.Name, sp)
		}
	}
	for _, stage := range []string{"compile", "parse", "lower", "deps", "decide", "sim"} {
		if !byName[stage] {
			t.Errorf("trace missing %q stage; got %v", stage, byName)
		}
	}
	if got := rec.Header().Get("X-Neurovec-Cache"); got != "bypass" {
		t.Errorf("traced request cache header %q, want bypass", got)
	}

	// Traced requests never enter the cache: an untraced repeat is a miss,
	// and a traced repeat after that stays a bypass with fresh spans.
	rec2, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	if got := rec2.Header().Get("X-Neurovec-Cache"); got != "miss" {
		t.Errorf("untraced repeat after traced request: cache %q, want miss", got)
	}
	rec3, body3 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Trace: true})
	if rec3.Code != http.StatusOK || rec3.Header().Get("X-Neurovec-Cache") != "bypass" {
		t.Fatalf("body-form trace: status %d cache %q", rec3.Code, rec3.Header().Get("X-Neurovec-Cache"))
	}
	var resp3 api.CompileResponse
	if err := json.Unmarshal(body3, &resp3); err != nil {
		t.Fatal(err)
	}
	if len(resp3.Trace) == 0 {
		t.Error("body-form trace returned no spans")
	}
}

func TestCompileBatchPerItemTrace(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	batch := api.Batch{Requests: []api.CompileRequest{
		{File: "traced.c", Source: fixture.srcs[0], Trace: true},
		{File: "plain.c", Source: fixture.srcs[1]},
	}}
	rec, body := do(t, s, "POST", "/v2/compile", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out api.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 2 {
		t.Fatalf("got %d responses, want 2", len(out.Responses))
	}
	if len(out.Responses[0].Trace) == 0 {
		t.Error("traced batch item returned no spans")
	}
	if len(out.Responses[1].Trace) != 0 {
		t.Error("untraced batch item returned spans")
	}
}

func TestMetricsStageHistogramAndLint(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	// One compile drives the pipeline; stage durations must land in the
	// histogram even though nobody asked for a trace.
	rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: fixture.srcs[0]})
	if rec.Code != http.StatusOK {
		t.Fatalf("compile status %d: %s", rec.Code, body)
	}

	_, mbody := do(t, s, "GET", "/metrics", nil)
	text := string(mbody)
	for _, stage := range []string{"compile", "parse", "extract", "lower", "deps", "sim_baseline", "embed", "decide", "sim"} {
		want := fmt.Sprintf(`neurovec_stage_duration_seconds_count{stage=%q} `, stage)
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing stage histogram for %q", stage)
		}
	}
	for _, name := range []string{
		"neurovec_queue_wait_seconds_count ",
		"neurovec_queue_depth ",
		"neurovec_inflight_jobs ",
		"neurovec_cache_hit_ratio ",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics missing %q", name)
		}
	}

	// The whole exposition passes the promtool-style lint.
	if errs := obs.Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("exposition lint failed:\n%v\n--- exposition ---\n%s", errs, text)
	}
}

func TestPprofMountIsOptIn(t *testing.T) {
	testFixture(t)
	off := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, _ := do(t, off, "GET", "/debug/pprof/", nil)
	if rec.Code == http.StatusOK {
		t.Fatal("pprof served without -pprof")
	}
	on := newTestServer(t, Config{ModelPath: fixture.model1, Pprof: true})
	rec2, body := do(t, on, "GET", "/debug/pprof/", nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("pprof index status %d: %s", rec2.Code, body)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index looks wrong: %.200s", body)
	}
}

func TestServerLogsRequests(t *testing.T) {
	testFixture(t)
	var buf strings.Builder
	logger := obslog.New(&buf, obslog.LevelDebug, obslog.FormatJSON)
	s := newTestServer(t, Config{ModelPath: fixture.model1, Logger: logger})
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "log-probe")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	line := buf.String()
	if !strings.Contains(line, `"request_id":"log-probe"`) || !strings.Contains(line, `"endpoint":"/healthz"`) {
		t.Errorf("request log line missing fields: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &m); err != nil {
		t.Errorf("log line is not valid JSON: %v (%q)", err, line)
	}
}
