package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/rl"
	"neurovec/internal/service"
)

// The fixture trains one small model (and a retrained variant for the
// rolling-reload tests) once for the whole package — the same recipe the
// service package tests use, so replica behavior matches.
var fixture struct {
	once   sync.Once
	err    error
	model1 string
	model2 string
	srcs   []string
}

func testFixture(t *testing.T) {
	t.Helper()
	fixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "neurovec-fleet")
		if err != nil {
			fixture.err = err
			return
		}
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
		if _, err := fw.ContinueTraining(1); err != nil {
			fixture.err = err
			return
		}
		fixture.model2 = filepath.Join(dir, "model2.gob")
		if err := fw.SaveModelFile(fixture.model2); err != nil {
			fixture.err = err
			return
		}
		for _, s := range dataset.Generate(dataset.GenConfig{N: 8, Seed: 7}).Samples {
			fixture.srcs = append(fixture.srcs, s.Source)
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
}

func modelVersion(t *testing.T, path string) string {
	t.Helper()
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	return fw.ModelVersion()
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

// testReplica is one backend `serve` instance behind a kill switch: down
// replicas answer 503 on every route and drop existing connections, which is
// how the tests simulate a crashed process without losing the port.
type testReplica struct {
	svc  *service.Server
	hs   *httptest.Server
	down atomic.Bool
	// conns counts the connections the replica has accepted.
	conns atomic.Int64
	// hold, when set, runs before each /v2/ request is served, so a test
	// can act while a forward is in flight.
	hold atomic.Pointer[func()]
}

func (rep *testReplica) kill() {
	rep.down.Store(true)
	rep.hs.CloseClientConnections()
}

func (rep *testReplica) revive() { rep.down.Store(false) }

// newTestFleet builds n replicas (each serving the checkpoint at paths[i])
// and a router over them. The router's background prober is not started;
// tests drive probes deterministically with rt.probeOnce(). One synchronous
// sweep runs here so the fleet version is known from the start.
func newTestFleet(t *testing.T, paths []string, cfg Config) (*Router, []*testReplica) {
	t.Helper()
	return newTestFleetWith(t, paths, cfg, service.Config{})
}

// newTestFleetWith is newTestFleet with every replica built from scfg (its
// ModelPath set per replica).
func newTestFleetWith(t *testing.T, paths []string, cfg Config, scfg service.Config) (*Router, []*testReplica) {
	t.Helper()
	replicas := make([]*testReplica, len(paths))
	addrs := make([]string, len(paths))
	for i, path := range paths {
		scfg.ModelPath = path
		svc, err := service.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		rep := &testReplica{svc: svc}
		rep.hs = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hold := rep.hold.Load(); hold != nil && strings.HasPrefix(r.URL.Path, "/v2/") {
				(*hold)()
			}
			if rep.down.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"replica down"}`)
				return
			}
			svc.ServeHTTP(w, r)
		}))
		rep.hs.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				rep.conns.Add(1)
			}
		}
		rep.hs.Start()
		t.Cleanup(rep.hs.Close)
		replicas[i] = rep
		addrs[i] = rep.hs.URL
	}
	cfg.Replicas = addrs
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // tests drive probes by hand
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	if cfg.ReadyAfter == 0 {
		cfg.ReadyAfter = 1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.probeOnce()
	return rt, replicas
}

// post sends one JSON request through a handler.
func post(t *testing.T, h http.Handler, path string, body any, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.Bytes()
}

// postNDJSON sends reqs as an NDJSON stream and returns the response lines.
func postNDJSON(t *testing.T, h http.Handler, reqs []api.CompileRequest, hdr map[string]string) [][]byte {
	t.Helper()
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v2/compile", &in)
	req.Header.Set("Content-Type", "application/x-ndjson")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("NDJSON status %d: %s", rec.Code, rec.Body.String())
	}
	var lines [][]byte
	for _, l := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// streamRecorder is a ResponseWriter that hands each written chunk to the
// test as it arrives, so a test can interleave writing request lines with
// reading response lines — which net/http's HTTP/1.1 client cannot do.
type streamRecorder struct {
	hdr    http.Header
	chunks chan []byte
	rest   []byte
}

func newStreamRecorder() *streamRecorder {
	return &streamRecorder{hdr: make(http.Header), chunks: make(chan []byte, 64)}
}

func (w *streamRecorder) Header() http.Header { return w.hdr }
func (w *streamRecorder) WriteHeader(int)     {}
func (w *streamRecorder) Flush()              {}
func (w *streamRecorder) Write(p []byte) (int, error) {
	w.chunks <- append([]byte(nil), p...)
	return len(p), nil
}

// line returns the next newline-terminated response line.
func (w *streamRecorder) line(timeout time.Duration) ([]byte, error) {
	deadline := time.After(timeout)
	for {
		if i := bytes.IndexByte(w.rest, '\n'); i >= 0 {
			line := append([]byte(nil), w.rest[:i]...)
			w.rest = w.rest[i+1:]
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			return line, nil
		}
		select {
		case chunk := <-w.chunks:
			w.rest = append(w.rest, chunk...)
		case <-deadline:
			return nil, fmt.Errorf("no response line within %s", timeout)
		}
	}
}

// stripIDs removes every request_id field: the one response field that
// legitimately differs between a fleet answer and a single-process answer.
func stripIDs(v any) {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "request_id")
		for _, vv := range x {
			stripIDs(vv)
		}
	case []any:
		for _, vv := range x {
			stripIDs(vv)
		}
	}
}

func normalize(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	stripIDs(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// metricValue digs one un-labeled sample out of the router's /metrics text.
func metricValue(t *testing.T, rt *Router, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	rt.metrics.WriteTo(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	return 0
}

// TestFleetSingleByteIdentityAndSharedCache pins the core fleet contract:
// the router's answer to a single-form request is byte-identical to a
// single-process `neurovec serve` answer, and a repeat is served from the
// shared cache tier with the same bytes.
func TestFleetSingleByteIdentityAndSharedCache(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})
	ref, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for i, src := range fixture.srcs[:4] {
		req := api.CompileRequest{Source: src}
		rec, body := post(t, rt, "/v2/compile", &req, nil)
		refRec, refBody := post(t, ref, "/v2/compile", &req, nil)
		if rec.Code != http.StatusOK || refRec.Code != http.StatusOK {
			t.Fatalf("src %d: fleet %d, single %d: %s", i, rec.Code, refRec.Code, body)
		}
		if string(body) != string(refBody) {
			t.Fatalf("src %d: fleet body differs from single-process body:\n--- fleet ---\n%s\n--- single ---\n%s", i, body, refBody)
		}
		if got := rec.Header().Get("X-Neurovec-Cache"); got != "miss" {
			t.Fatalf("src %d: first fleet request cache header %q, want miss", i, got)
		}
		rec2, body2 := post(t, rt, "/v2/compile", &req, nil)
		if rec2.Code != http.StatusOK || rec2.Header().Get("X-Neurovec-Cache") != "hit" {
			t.Fatalf("src %d: repeat status %d cache %q, want 200 hit", i, rec2.Code, rec2.Header().Get("X-Neurovec-Cache"))
		}
		if string(body2) != string(body) {
			t.Fatalf("src %d: shared-cache hit bytes differ from miss bytes", i)
		}
	}

	// The edge honors a sane inbound X-Request-ID and echoes it back.
	rec, _ := post(t, rt, "/v2/compile", &api.CompileRequest{Source: fixture.srcs[0]}, map[string]string{"X-Request-ID": "fleet-corr-1"})
	if got := rec.Header().Get("X-Request-ID"); got != "fleet-corr-1" {
		t.Fatalf("router did not echo inbound request ID: got %q", got)
	}
}

// TestFleetBatchAndStreamMatchSingleProcess runs the batch envelope and the
// NDJSON stream through the router and requires decision-identical output
// (modulo request_id) to a single-process server, with the edge request ID
// stamped on every record.
func TestFleetBatchAndStreamMatchSingleProcess(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})
	ref, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	reqs := make([]api.CompileRequest, 4)
	for i, src := range fixture.srcs[:4] {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("f%d.c", i), Source: src}
	}

	_, fleetBatch := post(t, rt, "/v2/compile", api.Batch{Requests: reqs}, nil)
	_, refBatch := post(t, ref, "/v2/compile", api.Batch{Requests: reqs}, nil)
	if normalize(t, fleetBatch) != normalize(t, refBatch) {
		t.Fatalf("batch responses differ:\n--- fleet ---\n%s\n--- single ---\n%s", fleetBatch, refBatch)
	}

	hdr := map[string]string{"X-Request-ID": "fleet-stream-7"}
	fleetLines := postNDJSON(t, rt, reqs, hdr)
	refLines := postNDJSON(t, ref, reqs, nil)
	if len(fleetLines) != len(reqs) || len(refLines) != len(reqs) {
		t.Fatalf("line counts: fleet %d, single %d, want %d", len(fleetLines), len(refLines), len(reqs))
	}
	for i := range fleetLines {
		if normalize(t, fleetLines[i]) != normalize(t, refLines[i]) {
			t.Fatalf("line %d differs:\n--- fleet ---\n%s\n--- single ---\n%s", i, fleetLines[i], refLines[i])
		}
		var resp api.CompileResponse
		if err := json.Unmarshal(fleetLines[i], &resp); err != nil {
			t.Fatal(err)
		}
		if resp.RequestID != "fleet-stream-7" {
			t.Fatalf("line %d request_id %q, want the edge ID", i, resp.RequestID)
		}
		if resp.Error != "" {
			t.Fatalf("line %d unexpected error: %s", i, resp.Error)
		}
	}
}

// TestFleetNDJSONStreamOverHTTP posts a 16-line stream of more than 4 KB to
// the router behind a real HTTP server. The router flushes response lines
// while request lines are still unread, which loses the rest of the body
// unless the response runs full duplex; a recorder holds the whole body and
// cannot show that.
func TestFleetNDJSONStreamOverHTTP(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model1}, Config{})
	hs := httptest.NewServer(rt)
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

// TestFleetKillReplicaMidStream is the failure drill: a replica dies while
// an NDJSON batch is in flight, and the router must route the remaining
// lines to the survivors — every line answered, in order, byte-identical
// (modulo request_id) to a single-process run.
func TestFleetKillReplicaMidStream(t *testing.T) {
	testFixture(t)
	rt, replicas := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})
	ref, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	reqs := make([]api.CompileRequest, len(fixture.srcs))
	for i, src := range fixture.srcs {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("k%d.c", i), Source: src}
	}

	// Drive the router handler directly with a piped request body and a
	// channel-backed response writer: Go's HTTP/1.1 client cannot pipeline
	// request lines against response lines on one connection (no client-side
	// full duplex), but the handler streams each response as its line
	// completes, which is exactly what this test needs to observe.
	pr, pw := io.Pipe()
	httpReq := httptest.NewRequest(http.MethodPost, "/v2/compile", pr)
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	sw := newStreamRecorder()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		rt.ServeHTTP(sw, httpReq)
	}()

	writeLine := func(i int) {
		data, err := json.Marshal(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(data, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	readLine := func() []byte {
		line, err := sw.line(5 * time.Second)
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		return line
	}

	var lines [][]byte
	// First half flows through the healthy fleet.
	for i := 0; i < 4; i++ {
		writeLine(i)
		lines = append(lines, readLine())
	}
	// A replica dies mid-batch; probe sweeps eject it from the ring.
	replicas[1].kill()
	rt.probeOnce()
	rt.probeOnce()
	// The rest of the batch must survive on the remaining replicas.
	for i := 4; i < len(reqs); i++ {
		writeLine(i)
	}
	pw.Close()
	for i := 4; i < len(reqs); i++ {
		lines = append(lines, readLine())
	}
	<-handlerDone

	_, st := get(t, rt, "/fleet/status")
	var status api.FleetStatus
	if err := json.Unmarshal(st, &status); err != nil {
		t.Fatal(err)
	}
	if status.ReadyReplicas != 2 {
		t.Fatalf("ready replicas after kill: %d, want 2 (%s)", status.ReadyReplicas, st)
	}

	for i, line := range lines {
		var got api.CompileResponse
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Error != "" {
			t.Fatalf("line %d failed after replica kill: %s", i, got.Error)
		}
		if got.File != reqs[i].File {
			t.Fatalf("line %d out of order: file %q, want %q", i, got.File, reqs[i].File)
		}
		refLines := postNDJSON(t, ref, reqs[i:i+1], nil)
		if normalize(t, line) != normalize(t, refLines[0]) {
			t.Fatalf("line %d decisions differ from single-process run:\n--- fleet ---\n%s\n--- single ---\n%s", i, line, refLines[0])
		}
	}
}

// TestFleetEjectionAndReadmission walks the replica lifecycle: probe
// failures eject, traffic keeps flowing, recovery re-admits.
func TestFleetEjectionAndReadmission(t *testing.T) {
	testFixture(t)
	rt, replicas := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})

	v1 := modelVersion(t, fixture.model1)
	if got := rt.fleetVersion(); got != v1 {
		t.Fatalf("fleet version %q, want %q", got, v1)
	}

	replicas[2].kill()
	rt.probeOnce() // failure 1
	rt.probeOnce() // failure 2 -> ejected (FailAfter: 2)

	_, st := get(t, rt, "/fleet/status")
	var status api.FleetStatus
	if err := json.Unmarshal(st, &status); err != nil {
		t.Fatal(err)
	}
	if status.ReadyReplicas != 2 || status.Replicas[2].State != api.ReplicaEjected {
		t.Fatalf("after kill: %s", st)
	}
	if status.ModelVersion != v1 {
		t.Fatalf("fleet version lost on ejection: %s", st)
	}

	// Traffic still flows around the hole (fresh source to dodge caches).
	rec, body := post(t, rt, "/v2/compile", &api.CompileRequest{Source: "// ejection drill\n" + fixture.srcs[0]}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("request during ejection: %d: %s", rec.Code, body)
	}

	replicas[2].revive()
	rt.probeOnce() // success -> ready (ReadyAfter: 1)
	_, st = get(t, rt, "/fleet/status")
	if err := json.Unmarshal(st, &status); err != nil {
		t.Fatal(err)
	}
	if status.ReadyReplicas != 3 || status.Replicas[2].State != api.ReplicaReady {
		t.Fatalf("after recovery: %s", st)
	}

	// All replicas down -> the router itself reports unready and sheds.
	for _, rep := range replicas {
		rep.kill()
	}
	rt.probeOnce()
	rt.probeOnce()
	rec, _ = get(t, rt, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty ring: %d, want 503", rec.Code)
	}
	rec, _ = post(t, rt, "/v2/compile", &api.CompileRequest{Source: "// empty ring\n" + fixture.srcs[0]}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("compile with empty ring: %d, want 503", rec.Code)
	}
}

// TestFleetHedging points a fleet at one slow and one fast replica and
// requires hedged duplicates to keep tail latency bounded: every request
// answers OK, and at least one hedge fires.
func TestFleetHedging(t *testing.T) {
	testFixture(t)
	svcSlow, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer svcSlow.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v2/") {
			time.Sleep(300 * time.Millisecond)
		}
		svcSlow.ServeHTTP(w, r)
	}))
	defer slow.Close()
	svcFast, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer svcFast.Close()
	fast := httptest.NewServer(svcFast)
	defer fast.Close()

	rt, err := New(Config{
		Replicas:      []string{slow.URL, fast.URL},
		ProbeInterval: time.Hour,
		HedgeAfter:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.probeOnce()

	// Ring positions hash the replicas' (random) addresses, so the requests
	// that must reach the slow replica are picked by their owner: the
	// fixture sources it owns, and a generated file it owns so that there is
	// at least one.
	slowOwned := func(file string) api.CompileRequest {
		for k := 0; ; k++ {
			req := api.CompileRequest{File: file, Source: fmt.Sprintf("float s%d[64];\nvoid f() {\n  for (int i = 0; i < 64; i++) { s%d[i] = s%d[i] * 2; }\n}\n", k, k, k)}
			if ownerOf(rt, &req) == slow.URL {
				return req
			}
		}
	}
	single := []api.CompileRequest{slowOwned("single.c")}
	for _, src := range fixture.srcs {
		if req := (api.CompileRequest{Source: src}); ownerOf(rt, &req) == slow.URL {
			single = append(single, req)
		}
	}
	for i := range single {
		rec, body := post(t, rt, "/v2/compile", &single[i], nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("single %d: status %d: %s", i, rec.Code, body)
		}
	}
	hedges := metricValue(t, rt, "neurovec_fleet_hedges_total")
	if hedges == 0 {
		t.Fatal("no hedges fired against a replica 15x slower than the hedge delay")
	}

	// An envelope hedges per sub-envelope: the slow replica's share gets a
	// duplicate on the fast one, and every record still answers in order.
	// A generated file the slow replica owns makes sure it gets a
	// sub-envelope.
	reqs := make([]api.CompileRequest, len(fixture.srcs))
	for i, src := range fixture.srcs {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("h%d.c", i), Source: "// envelope\n" + src}
	}
	reqs = append(reqs, slowOwned("slow.c"))
	rec, body := post(t, rt, "/v2/compile", api.Batch{Requests: reqs}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("envelope: status %d: %s", rec.Code, body)
	}
	var out api.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, resp := range out.Responses {
		if resp.Error != "" || resp.File != reqs[i].File {
			t.Fatalf("envelope record %d: file %q error %q", i, resp.File, resp.Error)
		}
	}
	if got := metricValue(t, rt, "neurovec_fleet_hedges_total"); got <= hedges {
		t.Fatal("no hedge fired for an envelope with a sub-envelope to the slow replica")
	}
}

// TestFleetRollingReload drives the tentpole state machine under concurrent
// traffic: every replica's checkpoint is swapped on disk, POST /fleet/reload
// rolls the fleet replica-by-replica, no request observes a non-2xx, and the
// fleet converges on the new version with the cache tier re-armed.
func TestFleetRollingReload(t *testing.T) {
	testFixture(t)
	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("serving-%d.gob", i))
		copyFile(t, fixture.model1, paths[i])
	}
	rt, _ := newTestFleet(t, paths, Config{})
	v1 := modelVersion(t, fixture.model1)
	v2 := modelVersion(t, fixture.model2)

	// A second reload attempt while one is running must 409, not interleave.
	rt.reloadMu.Lock()
	rec, _ := post(t, rt, "/fleet/reload", nil, nil)
	rt.reloadMu.Unlock()
	if rec.Code != http.StatusConflict {
		t.Fatalf("concurrent reload: status %d, want 409", rec.Code)
	}

	// The retrained checkpoint lands on every replica's disk.
	for _, p := range paths {
		copyFile(t, fixture.model2, p)
	}

	// Concurrent traffic throughout the roll: distinct sources per worker
	// so requests actually travel to replicas rather than the shared cache.
	stop := make(chan struct{})
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := fmt.Sprintf("// worker %d iter %d\n%s", w, i, fixture.srcs[(w+i)%len(fixture.srcs)])
				rec, _ := post(t, rt, "/v2/compile", &api.CompileRequest{Source: src}, nil)
				if rec.Code < 200 || rec.Code > 299 {
					wrong.Add(1)
				}
			}
		}(w)
	}

	rec, body := post(t, rt, "/fleet/reload", nil, nil)
	close(stop)
	wg.Wait()

	if rec.Code != http.StatusOK {
		t.Fatalf("rolling reload: status %d: %s", rec.Code, body)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d requests saw a non-2xx during the roll", n)
	}
	var out api.FleetReloadResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelVersion != v2 {
		t.Fatalf("roll target %q, want %q (%s)", out.ModelVersion, v2, body)
	}
	if len(out.Replicas) != len(paths) {
		t.Fatalf("reload reported %d replicas, want %d", len(out.Replicas), len(paths))
	}
	for i, rep := range out.Replicas {
		if rep.PreviousVersion != v1 || rep.ModelVersion != v2 || rep.Error != "" {
			t.Fatalf("replica %d outcome: %+v, want %s -> %s", i, rep, v1, v2)
		}
	}

	// The fleet converged: status, the version gate, and fresh traffic all
	// see v2, and the shared cache re-arms under the new version's keys.
	_, st := get(t, rt, "/fleet/status")
	var status api.FleetStatus
	if err := json.Unmarshal(st, &status); err != nil {
		t.Fatal(err)
	}
	if status.ModelVersion != v2 || status.ReadyReplicas != 3 {
		t.Fatalf("post-roll status: %s", st)
	}
	req := api.CompileRequest{Source: "// post roll\n" + fixture.srcs[1]}
	rec, body = post(t, rt, "/v2/compile", &req, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-roll compile: %d: %s", rec.Code, body)
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != v2 {
		t.Fatalf("post-roll response served version %q, want %q", resp.ModelVersion, v2)
	}
	rec, _ = post(t, rt, "/v2/compile", &req, nil)
	if rec.Header().Get("X-Neurovec-Cache") != "hit" {
		t.Fatal("shared cache did not re-arm after the roll")
	}
}

// TestFleetMixedVersionNeverCached pins the cache-consistency invariant
// directly: while replicas disagree on the model version, the shared tier
// must neither serve nor store.
func TestFleetMixedVersionNeverCached(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model2}, Config{})
	if got := rt.fleetVersion(); got != "" {
		t.Fatalf("mixed fleet reported consistent version %q", got)
	}
	req := api.CompileRequest{Source: fixture.srcs[2]}
	for i := 0; i < 2; i++ {
		rec, body := post(t, rt, "/v2/compile", &req, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("mixed-fleet compile %d: %d: %s", i, rec.Code, body)
		}
		if got := rec.Header().Get("X-Neurovec-Cache"); got != "bypass" {
			t.Fatalf("mixed-fleet request %d cache header %q, want bypass", i, got)
		}
	}
	if rt.cache.Len() != 0 {
		t.Fatalf("mixed-version responses were cached: %d entries", rt.cache.Len())
	}
}
