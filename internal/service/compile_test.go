package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neurovec/internal/api"
)

// The /v2/compile tests cover the three request forms (single, Batch
// envelope, NDJSON stream), pins, version validation, and the per-loop
// caches.

func postCompile(t *testing.T, s *Server, body string, contentType string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestCompileSingle(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, File: "a.c"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != api.Version {
		t.Errorf("version %d, want %d", resp.Version, api.Version)
	}
	if resp.File != "a.c" {
		t.Errorf("file %q not echoed", resp.File)
	}
	if resp.Policy != "rl" || resp.ModelVersion == "" {
		t.Errorf("policy %q model %q", resp.Policy, resp.ModelVersion)
	}
	if len(resp.Loops) == 0 {
		t.Fatal("no per-loop decisions")
	}
	for _, d := range resp.Loops {
		if d.Loop == "" {
			t.Errorf("loop %s: empty LoopID", d.Label)
		}
		if d.Provenance.Origin != api.OriginPolicy || d.Provenance.Policy != "rl" {
			t.Errorf("loop %s: provenance %+v", d.Label, d.Provenance)
		}
	}

	// Explicit version 2 is accepted; anything else is a 400.
	rec, _ = do(t, s, "POST", "/v2/compile", api.CompileRequest{Version: 2, Source: src})
	if rec.Code != http.StatusOK {
		t.Errorf("explicit version 2: status %d", rec.Code)
	}
	rec, body = do(t, s, "POST", "/v2/compile", api.CompileRequest{Version: 1, Source: src})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("version 1: status %d body %s", rec.Code, body)
	}
}

func TestCompilePins(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	// Learn the loop ids from an unpinned compile first.
	_, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	var free api.CompileResponse
	if err := json.Unmarshal(body, &free); err != nil {
		t.Fatal(err)
	}
	target := free.Loops[0]

	pin := api.Pin{Loop: target.Loop, VF: 2, IF: 2}
	rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Pins: []api.Pin{pin}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var pinned api.CompileResponse
	if err := json.Unmarshal(body, &pinned); err != nil {
		t.Fatal(err)
	}
	got := pinned.Loops[0]
	if got.VF != 2 || got.IF != 2 || got.Provenance.Origin != api.OriginPin {
		t.Errorf("pinned loop: %+v", got)
	}
	for _, d := range pinned.Loops[1:] {
		if d.Provenance.Origin != api.OriginPolicy {
			t.Errorf("unpinned loop %s origin %q", d.Label, d.Provenance.Origin)
		}
	}

	// A pin addressing a nonexistent loop is the client's fault: 400.
	rec, body = do(t, s, "POST", "/v2/compile", api.CompileRequest{
		Source: src, Pins: []api.Pin{{Loop: "feedfacefeedface", VF: 2, IF: 2}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown pin: status %d body %s", rec.Code, body)
	}
	// Off-action-space factors likewise.
	rec, body = do(t, s, "POST", "/v2/compile", api.CompileRequest{
		Source: src, Pins: []api.Pin{{Loop: target.Loop, VF: 3, IF: 2}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("off-space pin: status %d body %s", rec.Code, body)
	}
}

func TestCompileBatchEnvelope(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, QueueDepth: 64})

	reqs := []api.CompileRequest{
		{File: "a.c", Source: fixture.srcs[0]},
		{File: "broken.c", Source: "void f( {"},
		{File: "b.c", Source: fixture.srcs[1]},
	}
	rec, body := do(t, s, "POST", "/v2/compile", api.Batch{Requests: reqs})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(batch.Responses), len(reqs))
	}
	for i, resp := range batch.Responses {
		if resp.File != reqs[i].File {
			t.Errorf("response %d: file %q, want %q (order not preserved?)", i, resp.File, reqs[i].File)
		}
	}
	if batch.Responses[1].Error == "" {
		t.Error("broken file did not carry an error")
	}
	if batch.Responses[0].Error != "" || batch.Responses[2].Error != "" {
		t.Errorf("good files carry errors: %q / %q", batch.Responses[0].Error, batch.Responses[2].Error)
	}
	// Batched answers equal single-request answers.
	_, single := do(t, s, "POST", "/v2/compile", reqs[0])
	var want api.CompileResponse
	if err := json.Unmarshal(single, &want); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses[0].Loops) != len(want.Loops) {
		t.Fatal("batched loop count differs from single request")
	}
	for i := range want.Loops {
		if batch.Responses[0].Loops[i] != want.Loops[i] {
			t.Errorf("loop %d differs between batch and single: %+v vs %+v",
				i, batch.Responses[0].Loops[i], want.Loops[i])
		}
	}

	rec, _ = do(t, s, "POST", "/v2/compile", api.Batch{Version: 1, Requests: reqs})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("version-1 batch: status %d", rec.Code)
	}
}

func TestCompileBatchLargerThanQueueDoesNotShed(t *testing.T) {
	testFixture(t)
	// Default pool sizing (workers = GOMAXPROCS, queue = 4x workers): a
	// batch far wider than the queue must still compile every file, because
	// the envelope path bounds its in-flight fan-out instead of dumping the
	// whole batch on the queue at once.
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	n := s.pool.Workers()*8 + 16
	reqs := make([]api.CompileRequest, n)
	for i := range reqs {
		reqs[i] = api.CompileRequest{Source: fixture.srcs[i%len(fixture.srcs)]}
	}
	rec, body := do(t, s, "POST", "/v2/compile", api.Batch{Requests: reqs})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	for i, resp := range batch.Responses {
		if resp.Error != "" {
			t.Fatalf("response %d shed with %q on an otherwise idle server", i, resp.Error)
		}
	}
}

func TestCompileNDJSONStream(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, QueueDepth: 64})

	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	files := []string{"a.c", "b.c", "c.c"}
	for i, f := range files {
		if err := enc.Encode(api.CompileRequest{File: f, Source: fixture.srcs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rec := postCompile(t, s, in.String(), "application/x-ndjson")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != len(files) {
		t.Fatalf("%d response lines for %d requests:\n%s", len(lines), len(files), rec.Body.String())
	}
	for i, line := range lines {
		var resp api.CompileResponse
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.File != files[i] {
			t.Errorf("line %d: file %q, want %q (stream order broken)", i, resp.File, files[i])
		}
		if resp.Error != "" {
			t.Errorf("line %d: error %q", i, resp.Error)
		}
		// Streamed decisions equal the single-form answer for the same file.
		_, b1 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: fixture.srcs[i]})
		var single api.CompileResponse
		if err := json.Unmarshal(b1, &single); err != nil {
			t.Fatal(err)
		}
		if single.Annotated != resp.Annotated {
			t.Errorf("line %d: annotated output differs from the single form", i)
		}
		if len(single.Loops) != len(resp.Loops) {
			t.Fatalf("line %d: %d loops, single form has %d", i, len(resp.Loops), len(single.Loops))
		}
		for j, d := range resp.Loops {
			if single.Loops[j] != d {
				t.Errorf("line %d loop %d: single %+v vs stream %+v", i, j, single.Loops[j], d)
			}
		}
	}

	// A malformed line yields an error response line, not a dead stream.
	mixed := `{"file":"bad.c","source":` + "\n" + mustLine(t, api.CompileRequest{File: "ok.c", Source: fixture.srcs[0]})
	rec = postCompile(t, s, mixed, "application/x-ndjson")
	lines = strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), rec.Body.String())
	}
	var bad, ok api.CompileResponse
	if err := json.Unmarshal([]byte(lines[0]), &bad); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ok); err != nil {
		t.Fatal(err)
	}
	if bad.Error == "" {
		t.Error("malformed line did not produce an error response")
	}
	if ok.Error != "" || ok.File != "ok.c" {
		t.Errorf("well-formed line after a bad one failed: %+v", ok)
	}
}

// TestCompileNDJSONStreamOverHTTP posts a 16-line stream of more than 4 KB
// to a real HTTP server. The handler flushes response lines while request
// lines are still unread, which loses the rest of the body unless the
// response runs full duplex; a recorder holds the whole body and cannot
// show that.
func TestCompileNDJSONStreamOverHTTP(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, QueueDepth: 64})
	hs := httptest.NewServer(s)
	defer hs.Close()

	const lines = 16
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	pad := "/* " + strings.Repeat("x", 150) + " */\n"
	for i := 0; i < lines; i++ {
		req := api.CompileRequest{File: fmt.Sprintf("f%d.c", i), Source: pad + fixture.srcs[i%len(fixture.srcs)]}
		if err := enc.Encode(&req); err != nil {
			t.Fatal(err)
		}
	}
	if in.Len() < 4096 {
		t.Fatalf("stream is %d bytes, want at least 4 KB", in.Len())
	}
	resp, err := http.Post(hs.URL+"/v2/compile", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	ok := 0
	for {
		var r api.CompileResponse
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("line %d: %v", ok, err)
		}
		if r.Error != "" || r.File != fmt.Sprintf("f%d.c", ok) {
			t.Fatalf("line %d: file %q error %q", ok, r.File, r.Error)
		}
		ok++
	}
	if ok != lines {
		t.Fatalf("%d successful response lines, want %d", ok, lines)
	}
}

func mustLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCompileLoopCacheSurvivesWhitespaceEdits(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	_, b1 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	var first api.CompileResponse
	if err := json.Unmarshal(b1, &first); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.loops.Len(); n != len(first.Loops) {
		t.Fatalf("decision cache holds %d entries after first compile, want %d", n, len(first.Loops))
	}

	// A comment edit changes the bytes (response cache misses) but not the
	// LoopIDs, so decisions must come from the per-loop cache — same
	// factors, no new cache entries.
	edited := "// cosmetic edit\n" + src
	rec, b2 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: edited})
	if rec.Header().Get("X-Neurovec-Cache") != "miss" {
		t.Fatal("edited source unexpectedly hit the byte-level response cache")
	}
	var second api.CompileResponse
	if err := json.Unmarshal(b2, &second); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.loops.Len(); n != len(first.Loops) {
		t.Errorf("decision cache grew to %d entries on a whitespace edit", n)
	}
	for i := range first.Loops {
		f, g := first.Loops[i], second.Loops[i]
		if f.Loop != g.Loop || f.VF != g.VF || f.IF != g.IF {
			t.Errorf("loop %d: decision changed across whitespace edit: %+v vs %+v", i, f, g)
		}
	}
}

func TestCompileRequestBodyLimit(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, MaxRequestBytes: 256})
	big := strings.Repeat("x", 1024)
	rec, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: big})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}
}

func TestCompileCachedAcrossIdenticalRequests(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]
	req := api.CompileRequest{Source: src, File: "x.c"}
	rec1, b1 := do(t, s, "POST", "/v2/compile", req)
	if rec1.Header().Get("X-Neurovec-Cache") != "miss" {
		t.Fatal("first request should miss")
	}
	rec2, b2 := do(t, s, "POST", "/v2/compile", req)
	if rec2.Header().Get("X-Neurovec-Cache") != "hit" {
		t.Fatal("identical repeat should hit")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit body differs from miss body")
	}
	// Same source with a pin must not be served the unpinned cache entry.
	var free api.CompileResponse
	if err := json.Unmarshal(b1, &free); err != nil {
		t.Fatal(err)
	}
	rec3, b3 := do(t, s, "POST", "/v2/compile", api.CompileRequest{
		Source: src, File: "x.c", Pins: []api.Pin{{Loop: free.Loops[0].Loop, VF: 1, IF: 1}},
	})
	if rec3.Header().Get("X-Neurovec-Cache") != "miss" {
		t.Fatal("pinned request was served the unpinned cached response")
	}
	var pinned api.CompileResponse
	if err := json.Unmarshal(b3, &pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.Loops[0].VF != 1 || pinned.Loops[0].IF != 1 {
		t.Errorf("pin ignored: %+v", pinned.Loops[0])
	}
}

// TestCompileNDJSONRequestID checks that every line of an NDJSON stream (and
// every batch-envelope item) echoes the request's X-Request-ID — preferring a
// client-supplied inbound header over a regenerated one — and that cache hits
// carry the hitting request's ID, not the ID of the request that populated
// the cache.
func TestCompileNDJSONRequestID(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, QueueDepth: 64})

	line := mustLine(t, api.CompileRequest{File: "a.c", Source: fixture.srcs[0]}) + "\n"
	stream := func(id string) api.CompileResponse {
		req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader(line))
		req.Header.Set("Content-Type", "application/x-ndjson")
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var resp api.CompileResponse
		if err := json.Unmarshal([]byte(strings.TrimSpace(rec.Body.String())), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if got := stream("client-chose-this").RequestID; got != "client-chose-this" {
		t.Errorf("NDJSON line request_id %q, want the inbound header", got)
	}
	// Same file again: a response-cache hit must carry the new request's ID.
	if got := stream("second-request").RequestID; got != "second-request" {
		t.Errorf("cached NDJSON line request_id %q, want second-request", got)
	}
	// Without an inbound header the edge generates one and echoes it.
	if got := stream("").RequestID; got == "" {
		t.Error("NDJSON line carries no request_id without an inbound header")
	}

	// Batch-envelope items share the same discipline.
	body := mustLine(t, api.Batch{Requests: []api.CompileRequest{
		{File: "a.c", Source: fixture.srcs[0]},
		{File: "b.c", Source: fixture.srcs[1]},
	}})
	req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader(body))
	req.Header.Set("X-Request-ID", "batch-id")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Responses {
		if item.RequestID != "batch-id" {
			t.Errorf("batch item %d request_id %q, want batch-id", i, item.RequestID)
		}
	}
}
