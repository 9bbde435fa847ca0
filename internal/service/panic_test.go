package service

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/policy"
)

func TestPoolRecoversPanics(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Close()
	panics := 0
	p.OnPanic(func() { panics++ })

	err := p.Do(context.Background(), func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do returned %v, want *PanicError", err)
	}
	if pe.Val != "boom" {
		t.Errorf("panic value %v, want boom", pe.Val)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	// The worker that recovered must still serve jobs.
	ran := false
	if err := p.Do(context.Background(), func() { ran = true }); err != nil || !ran {
		t.Fatalf("pool dead after panic: err=%v ran=%v", err, ran)
	}
	if panics != 1 {
		t.Errorf("panic hook fired %d times, want 1", panics)
	}
}

// panicFactory registers a policy whose Decide panics — standing in for any
// latent bug inside a decision method reached from served traffic.
type panicServePolicy struct{}

func (panicServePolicy) Name() string { return "panic-test" }
func (panicServePolicy) Decide(context.Context, *policy.Request) (*policy.Decision, error) {
	panic("decision bug")
}

func init() {
	policy.Register("panic-test", func(policy.Host) (policy.Policy, error) {
		return panicServePolicy{}, nil
	})
}

// TestPanickingRequestGets500AndProcessSurvives is the satellite bugfix's
// end-to-end proof: one poisoned request costs that request a 500 (with the
// panic counted on the metric), and the very next request is served
// normally.
func TestPanickingRequestGets500AndProcessSurvives(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1})

	rec, body := do(t, s, "POST", "/v2/compile", map[string]any{
		"source": fixture.srcs[0],
		"policy": "panic-test",
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500 (body %s)", rec.Code, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("500 body does not name the panic: %s", body)
	}

	rec, body = do(t, s, "POST", "/v2/compile", map[string]any{"source": fixture.srcs[0]})
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200 (body %s)", rec.Code, body)
	}

	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "neurovec_pool_panics_total 1") {
		t.Error("panic counter not incremented")
	}
}

// TestServerSurvivesConcurrentPanics hammers the recover from several
// goroutines at once: every poisoned request that reaches a worker 500s
// (a slow machine may shed some with 503 before they reach one — that is
// backpressure, not a lost worker), no worker dies, and the server still
// answers normally afterwards.
func TestServerSurvivesConcurrentPanics(t *testing.T) {
	testFixture(t)
	s := newTestServer(t, Config{ModelPath: fixture.model1, QueueDepth: 64})
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			rec, _ := do(t, s, "POST", "/v2/compile", map[string]any{
				"source": fixture.srcs[0],
				"policy": "panic-test",
			})
			done <- rec.Code
		}()
	}
	panicked := 0
	for g := 0; g < 8; g++ {
		switch code := <-done; code {
		case http.StatusInternalServerError:
			panicked++
		case http.StatusServiceUnavailable:
			// shed at the queue, never ran
		default:
			t.Errorf("status %d, want 500 (panicked) or 503 (shed)", code)
		}
	}
	if panicked == 0 {
		t.Error("no request reached a worker; the test proved nothing")
	}
	if rec, _ := do(t, s, "POST", "/v2/compile", map[string]any{"source": fixture.srcs[0]}); rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after concurrent panics: %d", rec.Code)
	}
}

// TestPanicLoggedOnEveryForm holds every /v2/compile form to the same
// panic handling as the single one: a panicking batch item, NDJSON line or
// traced request answers with an error naming the panic, logs the panic
// with its stack once, and counts once on neurovec_pool_panics_total.
func TestPanicLoggedOnEveryForm(t *testing.T) {
	testFixture(t)
	line, err := json.Marshal(api.CompileRequest{Source: fixture.srcs[0], Policy: "panic-test"})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := json.Marshal(api.CompileRequest{Source: fixture.srcs[0], Policy: "panic-test", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, contentType, body string
		status                  int
	}{
		{"batch", "", `{"requests":[` + string(line) + `]}`, http.StatusOK},
		{"ndjson", "application/x-ndjson", string(line) + "\n", http.StatusOK},
		{"traced", "", string(traced), http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs strings.Builder
			s := newTestServer(t, Config{
				ModelPath: fixture.model1,
				Logger:    slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelError})),
			})
			rec := postCompile(t, s, tc.body, tc.contentType)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), "panicked") {
				t.Errorf("answer does not name the panic: %s", rec.Body)
			}
			out := logs.String()
			if n := strings.Count(out, "request panicked (recovered)"); n != 1 {
				t.Fatalf("panic logged %d times, want 1:\n%s", n, out)
			}
			if !strings.Contains(out, `"stack":"goroutine `) || !strings.Contains(out, "panicServePolicy") {
				t.Errorf("panic log line carries no stack through the panicking policy:\n%s", out)
			}
			var metrics strings.Builder
			if _, err := s.Metrics().WriteTo(&metrics); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(metrics.String(), "neurovec_pool_panics_total 1\n") {
				t.Error("panic not counted once on neurovec_pool_panics_total")
			}
		})
	}
}
