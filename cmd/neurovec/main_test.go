package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/dataset"
	"neurovec/internal/service"
)

const testKernel = `
int vals[256];
int kernel() {
    int s = 0;
    for (int i = 0; i < 256; i++) {
        s += vals[i] * 3;
    }
    return s;
}
`

func writeKernel(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.c")
	if err := os.WriteFile(path, []byte(testKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout redirects os.Stdout for the duration of fn and returns what
// fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, readErr := r.Read(buf)
			sb.Write(buf[:n])
			if readErr != nil {
				break
			}
		}
		done <- sb.String()
	}()
	fnErr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, fnErr
}

func TestCmdSweep(t *testing.T) {
	path := writeKernel(t)
	out, err := captureStdout(t, func() error { return cmdSweep([]string{"-file", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "VF=64") || !strings.Contains(out, "IF=16") {
		t.Fatalf("sweep output incomplete:\n%s", out)
	}
}

func TestCmdBrute(t *testing.T) {
	path := writeKernel(t)
	out, err := captureStdout(t, func() error { return cmdBrute([]string{"-file", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "best VF=") {
		t.Fatalf("brute output missing decision:\n%s", out)
	}
}

// TestCmdExplain runs explain on the test kernel and on tsvc's s113, whose
// trip count only semantic analysis proves. Explain loads the file through
// the served front end, so its baseline decision is the pragma
// `annotate -policy costmodel` emits.
func TestCmdExplain(t *testing.T) {
	path := writeKernel(t)
	out, err := captureStdout(t, func() error { return cmdExplain([]string{"-file", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "baseline cost model decision") || !strings.Contains(out, "brute-force best") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}

	var s113 string
	for _, b := range dataset.TSVC() {
		if b.Name == "s113_invariant_element" {
			s113 = filepath.Join(t.TempDir(), "s113.c")
			if err := os.WriteFile(s113, []byte(b.Source), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s113 == "" {
		t.Fatal("tsvc has no s113_invariant_element")
	}
	out, err = captureStdout(t, func() error { return cmdExplain([]string{"-file", s113}) })
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`baseline cost model decision \(VF=(\d+), IF=(\d+)\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("explain printed no baseline decision:\n%s", out)
	}
	annotated, err := captureStdout(t, func() error {
		return cmdAnnotate([]string{"-file", s113, "-policy", "costmodel"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "vectorize_width(" + m[1] + ") interleave_count(" + m[2] + ")"; !strings.Contains(annotated, want) {
		t.Errorf("explain's baseline is (VF=%s, IF=%s), annotate -policy costmodel emits:\n%s", m[1], m[2], annotated)
	}
}

func TestCmdReportSingleFigure(t *testing.T) {
	for _, tc := range []struct {
		fig, want, err string
	}{
		{fig: "1", want: "Figure 1"},
		{fig: "eff", want: "Training efficiency"},
		{fig: "ncm", err: `unknown figure "ncm"`},
		// Names are checked before any figure runs.
		{fig: "1,ncm", err: `unknown figure "ncm"`},
	} {
		out, err := captureStdout(t, func() error { return cmdReport([]string{"-fig", tc.fig}) })
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) || out != "" {
				t.Errorf("-fig %s: err %v and output %q, want error %q and no output", tc.fig, err, out, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("-fig %s: %v", tc.fig, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("-fig %s: report output missing %q:\n%s", tc.fig, tc.want, out)
		}
	}
}

func TestCmdTrainAndAnnotateWithModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small agent")
	}
	model := filepath.Join(t.TempDir(), "m.gob")
	_, err := captureStdout(t, func() error {
		return cmdTrain([]string{"-samples", "40", "-iters", "2", "-batch", "40", "-save", model})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	path := writeKernel(t)
	out, err := captureStdout(t, func() error {
		return cmdAnnotate([]string{"-file", path, "-model", model})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#pragma clang loop vectorize_width(") {
		t.Fatalf("annotated output missing pragma:\n%s", out)
	}
}

// TestCmdServeMatchesAnnotate checks the serving acceptance criterion: for
// the same checkpoint and input, /v2/compile returns byte-identical
// annotated source to `neurovec annotate -load`, and a repeated request is
// a cache hit.
func TestCmdServeMatchesAnnotate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small agent")
	}
	model := filepath.Join(t.TempDir(), "m.gob")
	if _, err := captureStdout(t, func() error {
		return cmdTrain([]string{"-samples", "40", "-iters", "2", "-batch", "40", "-save", model})
	}); err != nil {
		t.Fatal(err)
	}
	path := writeKernel(t)
	cliOut, err := captureStdout(t, func() error {
		return cmdAnnotate([]string{"-file", path, "-load", model})
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := service.New(service.Config{ModelPath: model})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func() (*httptest.ResponseRecorder, api.CompileResponse) {
		body, _ := json.Marshal(api.CompileRequest{Source: testKernel})
		req := httptest.NewRequest("POST", "/v2/compile", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var resp api.CompileResponse
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return rec, resp
	}
	rec, resp := post()
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Annotated != cliOut {
		t.Fatalf("served annotation differs from CLI:\n--- serve ---\n%s\n--- cli ---\n%s",
			resp.Annotated, cliOut)
	}
	rec2, _ := post()
	if rec2.Header().Get("X-Neurovec-Cache") != "hit" {
		t.Fatal("repeated request was not a cache hit")
	}
}

func TestCmdErrorsOnMissingFile(t *testing.T) {
	for _, fn := range []func([]string) error{cmdSweep, cmdBrute, cmdExplain} {
		if err := fn([]string{}); err == nil {
			t.Error("expected error without -file")
		}
		if err := fn([]string{"-file", "/nonexistent/x.c"}); err == nil {
			t.Error("expected error for missing file")
		}
	}
}

func TestBuildTrainerRejectsBadSpace(t *testing.T) {
	if _, _, err := buildTrainer(10, 1, 10, 1e-3, 1, "quantum"); err == nil {
		t.Fatal("expected error for unknown action space")
	}
}

func TestCmdEvalDeterministicReport(t *testing.T) {
	dir := t.TempDir()
	run := func(out string, jobs string) []byte {
		t.Helper()
		err := cmdEval([]string{
			"-policy", "random", "-corpus", "generated", "-n", "4",
			"-seed", "7", "-jobs", jobs, "-out", out,
		})
		if err != nil {
			t.Fatal(err)
		}
		body, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := run(filepath.Join(dir, "a.json"), "1")
	second := run(filepath.Join(dir, "b.json"), "4")
	if string(first) != string(second) {
		t.Fatalf("eval reports differ across runs/jobs:\n%s\n---\n%s", first, second)
	}
	var report struct {
		Spec struct {
			Policy string `json:"policy"`
			Seed   int64  `json:"seed"`
		} `json:"spec"`
		Overall struct {
			Files             int     `json:"files"`
			MeanSpeedup       float64 `json:"mean_speedup"`
			MeanOracleSpeedup float64 `json:"mean_oracle_speedup"`
		} `json:"overall"`
	}
	if err := json.Unmarshal(first, &report); err != nil {
		t.Fatal(err)
	}
	if report.Spec.Policy != "random" || report.Spec.Seed != 7 {
		t.Fatalf("spec = %+v", report.Spec)
	}
	if report.Overall.Files != 4 || report.Overall.MeanSpeedup <= 0 || report.Overall.MeanOracleSpeedup < 1 {
		t.Fatalf("overall = %+v", report.Overall)
	}
}

func TestCmdEvalCSVAndValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.csv")
	err := cmdEval([]string{
		"-policy", "costmodel", "-corpus", "generated", "-n", "2",
		"-seed", "3", "-format", "csv", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "suite,name,loops,") {
		t.Fatalf("csv header missing:\n%s", body)
	}
	if err := cmdEval([]string{"-corpus", "bogus"}); err == nil {
		t.Error("unknown corpus accepted")
	}
	if err := cmdEval([]string{"-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
	if err := cmdEval([]string{"-policy", "nns", "-load", "x.gob"}); err == nil {
		t.Error("nns with -load accepted")
	}
}

// TestCmdTrainCorpusJobsResume covers the rebuilt train command end to end:
// corpus-shared selection, a checkpointed run, and a killed-and-resumed run
// at a different worker count writing byte-identical final checkpoints.
func TestCmdTrainCorpusJobsResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains small agents")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.gob")
	b := filepath.Join(dir, "b.gob")
	common := []string{"-corpus", "generated", "-n", "3", "-batch", "24", "-seed", "7"}

	if _, err := captureStdout(t, func() error {
		return cmdTrain(append([]string{"-iters", "2", "-jobs", "2", "-out", a}, common...))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdTrain(append([]string{"-iters", "1", "-jobs", "4", "-out", b}, common...))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdTrain([]string{"-resume", b, "-iters", "2", "-jobs", "1"})
	}); err != nil {
		t.Fatal(err)
	}

	wantBytes, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantBytes) != string(gotBytes) {
		t.Fatalf("resumed checkpoint differs from uninterrupted run (%d vs %d bytes)", len(wantBytes), len(gotBytes))
	}
}
