package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/rl"
)

// The test fixture trains one small model (and a retrained variant for
// hot-reload tests) once for the whole package.
var fixture struct {
	once   sync.Once
	err    error
	dir    string
	model1 string // checkpoint A
	model2 string // checkpoint B (retrained: different version)
	srcs   []string
}

func testFixture(t *testing.T) {
	t.Helper()
	fixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "neurovec-service")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.dir = dir
		cfg := core.DefaultConfig()
		cfg.Embed.OutDim = 48
		cfg.Embed.EmbedDim = 12
		cfg.Embed.MaxContexts = 40
		fw := core.New(cfg)
		if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 30, Seed: 1})); err != nil {
			fixture.err = err
			return
		}
		rc := rl.DefaultConfig(nil, nil)
		rc.Batch = 96
		rc.MiniBatch = 32
		rc.Iterations = 3
		rc.LR = 1e-3
		rc.Hidden = []int{32, 32}
		fw.Train(&rc)
		fixture.model1 = filepath.Join(dir, "model1.gob")
		if err := fw.SaveModelFile(fixture.model1); err != nil {
			fixture.err = err
			return
		}
		fw.Agent().TrainIterations(fw, 1)
		fw.Retrained()
		fixture.model2 = filepath.Join(dir, "model2.gob")
		if err := fw.SaveModelFile(fixture.model2); err != nil {
			fixture.err = err
			return
		}
		for _, s := range dataset.Generate(dataset.GenConfig{N: 4, Seed: 7}).Samples {
			fixture.srcs = append(fixture.srcs, s.Source)
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
}

// referenceFramework loads a checkpoint the way the CLI's `annotate -load`
// does.
func referenceFramework(t *testing.T, path string) *core.Framework {
	t.Helper()
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	return fw
}

// servingPath returns a checkpoint file the test may overwrite to simulate
// a retrain landing on disk.
func servingPath(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serving.gob")
	copyFile(t, fixture.model1, path)
	return path
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do posts a JSON request and decodes the response.
func do(t *testing.T, s *Server, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var reader *strings.Reader
	if body == nil {
		reader = strings.NewReader("")
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = strings.NewReader(string(data))
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestAnnotateMatchesCLIPathAndCaches(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	ref := referenceFramework(t, fixture.model1)
	src := fixture.srcs[0]

	want, err := ref.PredictLoops(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}

	rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if got := rec.Header().Get("X-Neurovec-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Annotated != want.Annotated {
		t.Fatalf("served annotation differs from CLI path:\n--- served ---\n%s\n--- cli ---\n%s",
			resp.Annotated, want.Annotated)
	}
	if len(resp.Loops) != len(want.Loops) {
		t.Fatalf("%d served decisions, CLI path has %d", len(resp.Loops), len(want.Loops))
	}
	for i, d := range want.Loops {
		if resp.Loops[i] != d {
			t.Fatalf("decision %d: served %+v, CLI %+v", i, resp.Loops[i], d)
		}
	}
	if resp.ModelVersion != ref.ModelVersion() {
		t.Fatalf("served version %q, checkpoint %q", resp.ModelVersion, ref.ModelVersion())
	}
	if resp.Speedup <= 0 || resp.BaselineCycles <= 0 {
		t.Fatalf("bad speedup fields: %+v", resp)
	}

	// The repeat is a hit with a byte-identical body.
	rec2, body2 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Neurovec-Cache") != "hit" {
		t.Fatalf("repeat: status %d cache %q", rec2.Code, rec2.Header().Get("X-Neurovec-Cache"))
	}
	if string(body2) != string(body) {
		t.Fatal("cache hit body differs from miss body")
	}

	// And /metrics agrees.
	_, mbody := do(t, s, "GET", "/metrics", nil)
	if !strings.Contains(string(mbody), "neurovec_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", mbody)
	}
	if !strings.Contains(string(mbody), `neurovec_requests_total{endpoint="/v2/compile",code="200"} 2`) {
		t.Fatalf("metrics missing request count:\n%s", mbody)
	}
}

func TestSweepEndpoint(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, body := do(t, s, "POST", "/v1/sweep", SweepRequest{Source: fixture.srcs[2]})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Speedup) != len(resp.VFs) {
		t.Fatalf("%d rows, %d VFs", len(resp.Speedup), len(resp.VFs))
	}
	for _, row := range resp.Speedup {
		if len(row) != len(resp.IFs) {
			t.Fatalf("%d cols, %d IFs", len(row), len(resp.IFs))
		}
	}
	if resp.Speedup[0][0] != 1 && resp.BaselineCycles <= 0 {
		t.Fatalf("suspicious sweep: %+v", resp)
	}
}

func TestHealthz(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, body := do(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp HealthResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.ModelVersion == "" || resp.Workers < 1 {
		t.Fatalf("bad health: %+v", resp)
	}
}

func TestReloadSwapsVersion(t *testing.T) {
	testFixture(t)
	path := servingPath(t)
	s := newTestServer(t, Config{ModelPath: path})
	v1 := s.ModelVersion()

	// A retrained checkpoint lands on disk; reload must swap it in.
	copyFile(t, fixture.model2, path)
	rec, body := do(t, s, "POST", "/v1/reload", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp ReloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PreviousVersion != v1 || resp.ModelVersion == v1 || resp.ModelVersion == "" {
		t.Fatalf("reload versions: %+v (had %s)", resp, v1)
	}
	if s.ModelVersion() != resp.ModelVersion {
		t.Fatal("server not serving the reloaded version")
	}

	// Responses now come from the new model version.
	rec2, body2 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: fixture.srcs[0]})
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, body2)
	}
	var cresp api.CompileResponse
	if err := json.Unmarshal(body2, &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.ModelVersion != resp.ModelVersion {
		t.Fatalf("compile served %q after reload to %q", cresp.ModelVersion, resp.ModelVersion)
	}
}

func TestReloadBadCheckpointKeepsServing(t *testing.T) {
	testFixture(t)
	path := servingPath(t)
	s := newTestServer(t, Config{ModelPath: path})
	v1 := s.ModelVersion()

	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, s, "POST", "/v1/reload", nil)
	if rec.Code == http.StatusOK {
		t.Fatal("reload of corrupt checkpoint succeeded")
	}
	if s.ModelVersion() != v1 {
		t.Fatal("corrupt reload changed the serving model")
	}
	rec2, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: fixture.srcs[0]})
	if rec2.Code != http.StatusOK {
		t.Fatal("server stopped serving after failed reload")
	}
}

func TestRequestErrors(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", rec.Code)
	}

	rec2, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: "int x;"})
	if rec2.Code != http.StatusUnprocessableEntity {
		t.Fatalf("no-loop source: status %d, want 422", rec2.Code)
	}

	rec3, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: "for (("})
	if rec3.Code != http.StatusUnprocessableEntity {
		t.Fatalf("parse error: status %d, want 422", rec3.Code)
	}

	// Every endpoint must classify a loop-free program the same way.
	rec4, _ := do(t, s, "POST", "/v1/sweep", SweepRequest{Source: "int x;"})
	if rec4.Code != http.StatusUnprocessableEntity {
		t.Fatalf("sweep no-loop source: status %d, want 422", rec4.Code)
	}
}

// TestRetiredV1EndpointsAreGone checks that the whole-file annotate and
// embed endpoints stay removed: /v2/compile is the one compile surface.
func TestRetiredV1EndpointsAreGone(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	for _, path := range []string{"/v1/annotate", "/v1/embed"} {
		rec, body := do(t, s, "POST", path, api.CompileRequest{Source: fixture.srcs[0]})
		if rec.Code != http.StatusNotFound {
			t.Errorf("POST %s: status %d (%s), want 404", path, rec.Code, body)
		}
	}
}

// TestConcurrentAnnotateWithReload is the -race acceptance test: parallel
// /v2/compile traffic mixing cache hits and misses while checkpoints are
// hot-reloaded mid-flight. Every response must be a 200 whose annotation
// matches the golden output for whichever model version served it.
func TestConcurrentAnnotateWithReload(t *testing.T) {
	testFixture(t)
	path := servingPath(t)
	// An explicit queue depth keeps the test deterministic on single-core
	// machines, where the default (4x GOMAXPROCS) could shed this load.
	s := newTestServer(t, Config{ModelPath: path, QueueDepth: 64})

	// Golden annotations per model version.
	golden := make(map[string]map[string]string) // version -> source -> annotated
	for _, mp := range []string{fixture.model1, fixture.model2} {
		ref := referenceFramework(t, mp)
		m := make(map[string]string, len(fixture.srcs))
		for _, src := range fixture.srcs {
			resp, err := ref.PredictLoops(context.Background(), src, nil)
			if err != nil {
				t.Fatal(err)
			}
			m[src] = resp.Annotated
		}
		golden[ref.ModelVersion()] = m
	}

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := fixture.srcs[(w+r)%len(fixture.srcs)]
				rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", w, rec.Code, body)
					return
				}
				var resp api.CompileResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				m, ok := golden[resp.ModelVersion]
				if !ok {
					t.Errorf("worker %d: unknown model version %q", w, resp.ModelVersion)
					return
				}
				if resp.Annotated != m[src] {
					t.Errorf("worker %d: annotation does not match golden for version %s", w, resp.ModelVersion)
					return
				}
			}
		}(w)
	}

	// Hot-reload between the two checkpoints while traffic is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			from := fixture.model1
			if i%2 == 0 {
				from = fixture.model2
			}
			copyFile(t, from, path)
			rec, body := do(t, s, "POST", "/v1/reload", nil)
			if rec.Code != http.StatusOK {
				t.Errorf("reload %d: status %d: %s", i, rec.Code, body)
				return
			}
		}
	}()
	wg.Wait()

	// Sanity: traffic actually exercised both hit and miss paths.
	hits, misses := s.metrics.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("want mixed cache traffic, got hits=%d misses=%d", hits, misses)
	}
}

// TestAnnotatePolicySelection checks the tentpole acceptance criterion at
// the HTTP layer: the policy request field selects the decision method, and
// responses are cached under policy-aware keys (the same source under two
// policies is two cache entries, not one).
func TestAnnotatePolicySelection(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	for _, polName := range []string{"rl", "costmodel", "brute", "random"} {
		rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Policy: polName})
		if rec.Code != http.StatusOK {
			t.Fatalf("policy %s: status %d: %s", polName, rec.Code, body)
		}
		if got := rec.Header().Get("X-Neurovec-Cache"); got != "miss" {
			t.Fatalf("policy %s: first request cache header %q, want miss (policy must be part of the key)", polName, got)
		}
		var resp api.CompileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Policy != polName {
			t.Fatalf("served policy %q, requested %q", resp.Policy, polName)
		}
		if len(resp.Loops) == 0 || !strings.Contains(resp.Annotated, "#pragma") {
			t.Fatalf("policy %s: empty decision set: %+v", polName, resp)
		}
		// The repeat must hit the policy-specific entry.
		rec2, _ := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Policy: polName})
		if rec2.Header().Get("X-Neurovec-Cache") != "hit" {
			t.Fatalf("policy %s: repeat was not a cache hit", polName)
		}
	}

	// Per-policy metrics recorded one computed decision each.
	_, mbody := do(t, s, "GET", "/metrics", nil)
	for _, polName := range []string{"rl", "costmodel", "brute", "random"} {
		want := fmt.Sprintf("neurovec_policy_requests_total{policy=%q,outcome=\"ok\"} 1", polName)
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %s:\n%s", want, mbody)
		}
	}
}

func TestAnnotatePolicyErrors(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	src := fixture.srcs[0]

	// Unknown policy: client error. polly is a figure-only comparator, not
	// a servable policy.
	for _, name := range []string{"quantum", "polly"} {
		rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Policy: name})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("unknown policy %s: status %d (%s), want 400", name, rec.Code, body)
		}
	}
	// nns needs a labelled corpus the checkpoint-only server cannot supply:
	// conflict with serving state.
	rec2, body2 := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src, Policy: "nns"})
	if rec2.Code != http.StatusConflict {
		t.Fatalf("nns without corpus: status %d (%s), want 409", rec2.Code, body2)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, body := do(t, s, "GET", "/v1/policies", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp PoliciesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Default != "rl" || resp.ModelVersion == "" {
		t.Fatalf("bad discovery response: %+v", resp)
	}
	status := map[string]PolicyStatus{}
	for _, p := range resp.Policies {
		status[p.Name] = p
	}
	for _, name := range []string{"rl", "costmodel", "brute", "random"} {
		if !status[name].Available {
			t.Fatalf("policy %s unavailable on a loaded checkpoint: %+v", name, status[name])
		}
	}
	if nns := status["nns"]; nns.Available || nns.Reason == "" {
		t.Fatalf("nns must list unavailable with a reason on a checkpoint-only server: %+v", nns)
	}
}

func TestSweepPolicyOverlay(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, body := do(t, s, "POST", "/v1/sweep", SweepRequest{Source: fixture.srcs[2], Policy: "costmodel"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy != "costmodel" || resp.ChosenVF == 0 || resp.ChosenIF == 0 {
		t.Fatalf("sweep missing policy overlay: %+v", resp)
	}
	found := false
	for _, vf := range resp.VFs {
		if vf == resp.ChosenVF {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen VF %d not in grid %v", resp.ChosenVF, resp.VFs)
	}
}

// TestRequestTimeout checks the configurable per-request deadline: with a
// vanishingly small budget the default (rl) pipeline fails with 504, while
// the deadline-aware brute policy degrades to a truncated 200 that must not
// be cached.
func TestRequestTimeout(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, RequestTimeout: time.Nanosecond})
	src := fixture.srcs[0]

	rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: src})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("rl under 1ns deadline: status %d (%s), want 504", rec.Code, body)
	}

	// A per-request timeout_ms may shorten a generous server budget but the
	// brute policy still answers, flagged truncated and uncached.
	s2 := newTestServer(t, Config{ModelPath: fixture.model1, RequestTimeout: time.Minute})
	req := api.CompileRequest{Source: src, Policy: "brute", TimeoutMS: 1}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec2, body2 := do(t, s2, "POST", "/v2/compile", req)
		if rec2.Code != http.StatusOK {
			t.Fatalf("brute under deadline: status %d (%s), want 200", rec2.Code, body2)
		}
		var resp api.CompileResponse
		if err := json.Unmarshal(body2, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Truncated {
			if rec2.Header().Get("X-Neurovec-Cache") != "miss" {
				t.Fatal("truncated response served from cache")
			}
			// A truncated answer must not poison the cache for later, more
			// patient clients.
			rec3, _ := do(t, s2, "POST", "/v2/compile", api.CompileRequest{Source: src, Policy: "brute"})
			if rec3.Header().Get("X-Neurovec-Cache") == "hit" {
				t.Fatal("full-budget request hit a truncated cache entry")
			}
			return
		}
		// The machine finished the whole grid inside 1ms; try a fresh
		// source to avoid the now-cached complete answer.
		if time.Now().After(deadline) {
			t.Skip("grid repeatedly completed within 1ms; truncation unobservable on this machine")
		}
		src += "\n// retry\n"
		req.Source = src
	}
}

func TestEvalEndpoint(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	type evalReport struct {
		ModelVersion string `json:"model_version"`
		Report       struct {
			Spec struct {
				Policy   string `json:"policy"`
				Baseline string `json:"baseline"`
				Seed     int64  `json:"seed"`
			} `json:"spec"`
			Overall struct {
				Files             int     `json:"files"`
				MeanSpeedup       float64 `json:"mean_speedup"`
				MeanOracleSpeedup float64 `json:"mean_oracle_speedup"`
				MeanRegret        float64 `json:"mean_regret"`
			} `json:"overall"`
			Suites []struct {
				Suite string `json:"suite"`
				Files int    `json:"files"`
			} `json:"suites"`
			Timing *struct{} `json:"timing"`
		} `json:"report"`
	}

	rec, body := do(t, s, "POST", "/v1/eval", map[string]any{
		"policy": "rl", "corpus": "generated", "n": 4, "seed": 7, "jobs": 2,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/eval: %d %s", rec.Code, body)
	}
	var resp evalReport
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != s.ModelVersion() {
		t.Errorf("model_version = %q, want %q", resp.ModelVersion, s.ModelVersion())
	}
	if resp.Report.Spec.Policy != "rl" || resp.Report.Spec.Baseline != "costmodel" || resp.Report.Spec.Seed != 7 {
		t.Errorf("spec = %+v", resp.Report.Spec)
	}
	if resp.Report.Overall.Files != 4 || resp.Report.Overall.MeanSpeedup <= 0 {
		t.Errorf("overall = %+v", resp.Report.Overall)
	}
	if len(resp.Report.Suites) != 1 || resp.Report.Suites[0].Suite != "generated" {
		t.Errorf("suites = %+v", resp.Report.Suites)
	}
	if resp.Report.Timing != nil {
		t.Error("service report leaked the volatile timing block")
	}

	// Identical spec → cache hit with byte-identical body.
	rec2, body2 := do(t, s, "POST", "/v1/eval", map[string]any{
		"policy": "rl", "corpus": "generated", "n": 4, "seed": 7, "jobs": 2,
	})
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Neurovec-Cache") != "hit" {
		t.Fatalf("repeat eval: code %d cache %q", rec2.Code, rec2.Header().Get("X-Neurovec-Cache"))
	}
	if string(body) != string(body2) {
		t.Error("cached eval body differs from fresh body")
	}

	// GET with the same spec (different jobs) must return the same numbers.
	rec3, body3 := do(t, s, "GET", "/v1/eval?policy=rl&corpus=generated&n=4&seed=7&jobs=1", nil)
	if rec3.Code != http.StatusOK {
		t.Fatalf("GET /v1/eval: %d %s", rec3.Code, body3)
	}
	var resp3 evalReport
	if err := json.Unmarshal(body3, &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.Report.Overall != resp.Report.Overall {
		t.Errorf("GET numbers %+v != POST numbers %+v", resp3.Report.Overall, resp.Report.Overall)
	}

	// The harness should have populated the server's per-loop cache, and
	// the eval metrics should be exposed.
	if _, embeds := s.loops.Len(); embeds == 0 {
		t.Error("eval left the server's per-loop cache without code vectors")
	}
	recM, metricsBody := do(t, s, "GET", "/metrics", nil)
	if recM.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", recM.Code)
	}
	for _, want := range []string{
		`neurovec_eval_runs_total{policy="rl",outcome="ok"} `,
		`neurovec_eval_files_total{suite="generated"} `,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestEvalEndpointErrors(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	rec, _ := do(t, s, "POST", "/v1/eval", map[string]any{"policy": "no-such"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown policy: %d, want 400", rec.Code)
	}
	rec, _ = do(t, s, "POST", "/v1/eval", map[string]any{"corpus": "bogus"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown corpus: %d, want 400", rec.Code)
	}
	rec, _ = do(t, s, "POST", "/v1/eval", map[string]any{"n": 100000})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized corpus: %d, want 400", rec.Code)
	}
	rec, _ = do(t, s, "GET", "/v1/eval?seed=notanumber", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad query param: %d, want 400", rec.Code)
	}
	// nns needs a loaded corpus the checkpoint cannot carry: 409.
	rec, _ = do(t, s, "POST", "/v1/eval", map[string]any{"policy": "nns", "n": 2})
	if rec.Code != http.StatusConflict {
		t.Errorf("nns on checkpoint-only server: %d, want 409", rec.Code)
	}
}

func TestEvalShedsWhenBusy(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	// Occupy the single eval slot; a concurrent eval must shed with 503
	// rather than stack a second harness pool on the CPU.
	s.evalSem <- struct{}{}
	defer func() { <-s.evalSem }()
	rec, body := do(t, s, "POST", "/v1/eval", map[string]any{"policy": "costmodel", "n": 2})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("busy eval: %d %s, want 503", rec.Code, body)
	}
}

func TestEvalBaselineErrorNotChargedToPolicy(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})
	rec, _ := do(t, s, "POST", "/v1/eval", map[string]any{"policy": "costmodel", "baseline": "nope", "n": 2})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad baseline: %d, want 400", rec.Code)
	}
	_, metricsBody := do(t, s, "GET", "/metrics", nil)
	if strings.Contains(string(metricsBody), `neurovec_eval_runs_total{policy="costmodel",outcome="error"} 1`) {
		t.Error("baseline resolution failure was charged to the evaluated policy's error counter")
	}
}

// TestReadyz checks the readiness probe: 200 with the serving version while
// accepting work, 503 once the server is draining, and back to 200 when the
// drain is lifted. Liveness (/healthz) stays 200 throughout — that split is
// what lets a router drain a replica without restarting it.
func TestReadyz(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	rec, body := do(t, s, "GET", "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ready server /readyz status %d: %s", rec.Code, body)
	}
	var resp ReadyzResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ready" || resp.ModelVersion != s.ModelVersion() {
		t.Errorf("readyz %+v, want ready with version %s", resp, s.ModelVersion())
	}

	s.SetDraining(true)
	if !s.draining.Load() {
		t.Fatal("drain bit clear after SetDraining(true)")
	}
	rec, body = do(t, s, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz status %d, want 503: %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "draining" {
		t.Errorf("draining readyz status %q", resp.Status)
	}
	// Liveness is unaffected; compute endpoints keep serving too.
	if rec, body := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("draining server /healthz status %d: %s", rec.Code, body)
	}
	if rec, body := do(t, s, "POST", "/v2/compile", api.CompileRequest{Source: fixture.srcs[0]}); rec.Code != http.StatusOK {
		t.Errorf("draining server compile status %d: %s", rec.Code, body)
	}

	s.SetDraining(false)
	if rec, _ := do(t, s, "GET", "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("undrained server /readyz status %d", rec.Code)
	}
}
