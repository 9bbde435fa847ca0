package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/service"
)

// The batch tests cover the envelope path: files grouped into one
// sub-envelope per owning replica, replica records spliced into the answer,
// and the per-file path for everything a group cannot answer.

// semaBadSrc has an error-severity semantic diagnostic (an undeclared
// identifier), which strict mode rejects.
const semaBadSrc = `
int a[64];
void f() {
    a[0] = oops;
    for (int i = 0; i < 64; i++) {
        a[i] = i;
    }
}
`

// serve runs one request through h; safe off the test goroutine.
func serve(h http.Handler, body []byte, reqID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v2/compile", bytes.NewReader(body))
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// batchRecords splits a batch answer into its raw records and requires the
// envelope framing to be exactly what json.Marshal of api.BatchResponse
// writes around them.
func batchRecords(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	var out struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad batch answer %q: %v", body, err)
	}
	want := `{"version":2,"responses":[` + string(bytes.Join(asBytes(out.Responses), []byte(","))) + `]}`
	if string(body) != want {
		t.Fatalf("batch framing differs from encoding/json's:\n%s", body)
	}
	return out.Responses
}

func asBytes(recs []json.RawMessage) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r
	}
	return out
}

// TestFleetBatchRecordsMatchPerFilePath posts one envelope mixing valid
// files with every kind of file the per-file path answers: a parse error, a
// strict semantic rejection with diagnostics, an unknown policy, a pin that
// names a missing loop, a source that fails validation, and a traced file.
// Each record must be the bytes compileLine's per-file path produces for
// the file on its own; traced records are compared without their timings.
func TestFleetBatchRecordsMatchPerFilePath(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})
	reqs := []api.CompileRequest{
		{File: "ok0.c", Source: fixture.srcs[0]},
		{File: "parse.c", Source: "int f( {"},
		{File: "strict.c", Source: semaBadSrc, Strict: true},
		{File: "policy.c", Source: fixture.srcs[1], Policy: "no-such-policy"},
		{File: "pin.c", Source: fixture.srcs[2], Pins: []api.Pin{{Label: "L99", VF: 2, IF: 2}}},
		{File: "empty.c"},
		{File: "traced.c", Source: fixture.srcs[3], Trace: true},
		{File: "ok1.c", Source: fixture.srcs[4]},
	}
	const id = "mixed-envelope-1"
	rec, body := post(t, rt, "/v2/compile", api.Batch{Requests: reqs}, map[string]string{"X-Request-ID": id})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	got := batchRecords(t, body)
	if len(got) != len(reqs) {
		t.Fatalf("%d records for %d files", len(got), len(reqs))
	}
	for i := range reqs {
		want, err := json.Marshal(rt.compileLine(context.Background(), &reqs[i], id))
		if err != nil {
			t.Fatal(err)
		}
		g := []byte(got[i])
		if reqs[i].Trace {
			g, want = withoutTrace(t, g), withoutTrace(t, want)
		}
		if !bytes.Equal(g, want) {
			t.Fatalf("record %d (%s) differs from the per-file path:\n--- envelope ---\n%s\n--- per-file ---\n%s", i, reqs[i].File, g, want)
		}
	}

	var strict api.CompileResponse
	if err := json.Unmarshal(got[2], &strict); err != nil {
		t.Fatal(err)
	}
	if strict.Error == "" || len(strict.Diagnostics) == 0 {
		t.Fatalf("strict rejection lost its error or diagnostics: %s", got[2])
	}
	for _, i := range []int{1, 3, 4, 5} {
		var resp api.CompileResponse
		if err := json.Unmarshal(got[i], &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error == "" || resp.RequestID != id {
			t.Fatalf("record %d (%s): error %q request_id %q", i, reqs[i].File, resp.Error, resp.RequestID)
		}
	}
}

// withoutTrace re-encodes a traced record with its spans dropped, after
// checking it had some: span timings differ between two executions.
func withoutTrace(t *testing.T, rec []byte) []byte {
	t.Helper()
	var resp api.CompileResponse
	if err := json.Unmarshal(rec, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatalf("traced record has no spans: %s", rec)
	}
	resp.Trace = nil
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetBatchFillsSharedCache: records spliced from a sub-envelope are
// stored in the shared tier without their request_id, so a later
// single-form request for the same file is a hit whose bytes equal a
// single-process server's answer.
func TestFleetBatchFillsSharedCache(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1, fixture.model1}, Config{})
	ref, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	reqs := make([]api.CompileRequest, 4)
	for i := range reqs {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("fill%d.c", i), Source: fixture.srcs[i]}
	}
	rec, body := post(t, rt, "/v2/compile", api.Batch{Requests: reqs}, map[string]string{"X-Request-ID": `fill"<&>\1`})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if hits := metricValue(t, rt, "neurovec_fleet_cache_hits_total"); hits != 0 {
		t.Fatalf("%g cache hits on a cold envelope", hits)
	}
	for i := range reqs {
		rec, body := post(t, rt, "/v2/compile", &reqs[i], nil)
		_, refBody := post(t, ref, "/v2/compile", &reqs[i], nil)
		if got := rec.Header().Get("X-Neurovec-Cache"); got != "hit" {
			t.Fatalf("file %d: cache %q after the envelope, want hit", i, got)
		}
		if !bytes.Equal(body, refBody) {
			t.Fatalf("file %d: cached bytes differ from single-process bytes:\n--- fleet ---\n%s\n--- single ---\n%s", i, body, refBody)
		}
	}
}

// ownerOf returns the address of req's first ring node.
func ownerOf(rt *Router, req *api.CompileRequest) string {
	return rt.lookupReplicas(rt.shardKey(rt.fleetVersion(), req))[0].addr
}

// TestFleetBatchFailoverDrill marks one of three replicas down while a
// 16-file envelope is in flight to it, and separately before the envelope
// is sent. The sub-envelope fails over as a whole: every record comes back
// in order, equal (modulo request_id) to a single-process server's answer.
func TestFleetBatchFailoverDrill(t *testing.T) {
	testFixture(t)
	ref, err := service.New(service.Config{ModelPath: fixture.model1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	reqs := make([]api.CompileRequest, 16)
	for i := range reqs {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("d%d.c", i), Source: fmt.Sprintf("// drill %d\n%s", i, fixture.srcs[i%len(fixture.srcs)])}
	}
	envelope, err := json.Marshal(api.Batch{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	_, refBody := post(t, ref, "/v2/compile", api.Batch{Requests: reqs}, nil)

	for _, inFlight := range []bool{false, true} {
		name := "before send"
		if inFlight {
			name = "in flight"
		}
		t.Run(name, func(t *testing.T) {
			rt, replicas := newTestFleet(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{})
			// Ring positions hash the replicas' (random) addresses, so the
			// victim is whichever replica owns the first file.
			var victim *testReplica
			for _, rep := range replicas {
				if rep.hs.URL == ownerOf(rt, &reqs[0]) {
					victim = rep
				}
			}
			var body []byte
			if !inFlight {
				victim.kill()
				body = serve(rt, envelope, "").Body.Bytes()
			} else {
				arrived, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				hold := func() {
					once.Do(func() { close(arrived) })
					<-release
				}
				victim.hold.Store(&hold)
				done := make(chan []byte, 1)
				go func() { done <- serve(rt, envelope, "").Body.Bytes() }()
				select {
				case <-arrived:
				case b := <-done:
					close(release)
					t.Fatalf("envelope answered without a forward to the victim: %s", b)
				case <-time.After(30 * time.Second):
					close(release)
					t.Fatal("no forward reached the victim")
				}
				victim.kill()
				close(release)
				body = <-done
			}
			if normalize(t, body) != normalize(t, refBody) {
				t.Fatalf("records differ from single-process run:\n--- fleet ---\n%s\n--- single ---\n%s", body, refBody)
			}
			if retries := metricValue(t, rt, "neurovec_fleet_retries_total"); retries == 0 {
				t.Fatal("no failover recorded for the dead replica's sub-envelope")
			}
		})
	}
}

// TestFleetBatchBodySizeGuard sends four ~300 KB files to a one-replica
// fleet: the envelope fits the router's 4 MiB limit but not the replica's
// 1 MiB, so the router must split it, and every file must still answer.
func TestFleetBatchBodySizeGuard(t *testing.T) {
	testFixture(t)
	rt, _ := newTestFleet(t, []string{fixture.model1}, Config{})
	pad := "/* " + strings.Repeat("x", 300<<10) + " */\n"
	reqs := make([]api.CompileRequest, 4)
	for i := range reqs {
		reqs[i] = api.CompileRequest{File: fmt.Sprintf("big%d.c", i), Source: pad + fixture.srcs[i]}
	}
	envelope, err := json.Marshal(api.Batch{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(envelope)); n <= service.DefaultMaxRequestBytes || n >= rt.cfg.MaxRequestBytes {
		t.Fatalf("envelope is %d bytes, want between the replica and router limits", n)
	}
	rec := serve(rt, envelope, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes()[:200])
	}
	var out api.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != len(reqs) {
		t.Fatalf("%d records for %d files", len(out.Responses), len(reqs))
	}
	for i, resp := range out.Responses {
		if resp.Error != "" || resp.File != reqs[i].File || len(resp.Loops) == 0 {
			t.Fatalf("record %d: file %q error %q loops %d", i, resp.File, resp.Error, len(resp.Loops))
		}
	}
}

// TestFleetForwardConnectionReuse pins the forwarding client's keep-alive:
// bursts of 40 concurrent 16-file envelopes and 40 concurrent single-form
// requests must reuse pooled connections, so no replica accepts more than
// ReplicaInFlight of them — the most the router keeps open to one replica.
func TestFleetForwardConnectionReuse(t *testing.T) {
	testFixture(t)
	// A deep replica queue keeps the bursts from being shed, so every file
	// answers and the connection count reflects forwards, not failovers.
	rt, replicas := newTestFleetWith(t, []string{fixture.model1, fixture.model1, fixture.model1}, Config{}, service.Config{QueueDepth: 4096})
	burst := func(bodies [][]byte) {
		var wg sync.WaitGroup
		for k, b := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := serve(rt, b, "")
				if rec.Code != http.StatusOK {
					t.Errorf("request %d: status %d: %s", k, rec.Code, rec.Body.Bytes())
				} else if bytes.Contains(rec.Body.Bytes(), []byte(`"error":`)) {
					t.Errorf("request %d: error record: %s", k, rec.Body.Bytes())
				}
			}()
		}
		wg.Wait()
	}
	const n = 40
	var envelopes, singles [][]byte
	for k := 0; k < n; k++ {
		reqs := make([]api.CompileRequest, 16)
		for j := range reqs {
			reqs[j] = api.CompileRequest{File: fmt.Sprintf("e%d-%d.c", k, j), Source: fmt.Sprintf("// envelope %d file %d\n%s", k, j, fixture.srcs[j%len(fixture.srcs)])}
		}
		env, err := json.Marshal(api.Batch{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		envelopes = append(envelopes, env)
		single, err := json.Marshal(api.CompileRequest{Source: fmt.Sprintf("// single %d\n%s", k, fixture.srcs[k%len(fixture.srcs)])})
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, single)
	}
	burst(envelopes)
	burst(singles)
	for i, rep := range replicas {
		conns := rep.conns.Load()
		t.Logf("replica %d accepted %d connections", i, conns)
		if conns > int64(rt.cfg.ReplicaInFlight) {
			t.Errorf("replica %d accepted %d connections, want at most ReplicaInFlight = %d", i, conns, rt.cfg.ReplicaInFlight)
		}
	}
}
