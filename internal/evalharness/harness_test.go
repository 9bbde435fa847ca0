package evalharness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/rl"
)

func modelFree(t *testing.T, seed int64) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.New(cfg)
}

func runJSON(t *testing.T, h *Harness, corpus *Corpus, opts Options) []byte {
	t.Helper()
	report, err := h.Run(context.Background(), corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunDeterministicAcrossJobsAndRuns(t *testing.T) {
	corpus, err := BuildCorpus("generated", 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := New(modelFree(t, 3))
	opts := Options{Policy: "random", Seed: 3}

	opts.Jobs = 1
	first := runJSON(t, h, corpus, opts)
	opts.Jobs = 4
	second := runJSON(t, h, corpus, opts)
	if !bytes.Equal(first, second) {
		t.Fatalf("report differs across worker counts:\n--- jobs=1\n%s\n--- jobs=4\n%s", first, second)
	}
	// A fresh harness (cold caches, separate framework) must agree too.
	third := runJSON(t, New(modelFree(t, 3)), corpus, Options{Policy: "random", Seed: 3, Jobs: 2})
	if !bytes.Equal(first, third) {
		t.Fatal("report differs across harness instances at the same seed")
	}
}

func TestBruteAgainstItselfHasZeroRegret(t *testing.T) {
	corpus, err := BuildCorpus("generated", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := New(modelFree(t, 1))
	report, err := h.Run(context.Background(), corpus, Options{Policy: "brute", Seed: 1, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Files {
		if f.Error != "" {
			t.Fatalf("%s/%s: unexpected error %q", f.Suite, f.Name, f.Error)
		}
		if f.Regret != 0 {
			t.Errorf("%s: brute vs brute regret = %v, want 0", f.Name, f.Regret)
		}
		if f.AgreedLoops != f.Loops {
			t.Errorf("%s: agreement %d/%d, want full", f.Name, f.AgreedLoops, f.Loops)
		}
		if f.Speedup != f.OracleSpeedup {
			t.Errorf("%s: speedup %v != oracle speedup %v", f.Name, f.Speedup, f.OracleSpeedup)
		}
		if f.Speedup < 1 {
			t.Errorf("%s: oracle slower than baseline (%vx)", f.Name, f.Speedup)
		}
	}
	if report.Overall.Agreement != 1 {
		t.Errorf("overall agreement = %v, want 1", report.Overall.Agreement)
	}
	if report.Overall.Errors != 0 {
		t.Errorf("overall errors = %d, want 0", report.Overall.Errors)
	}
}

func TestPerFileErrorsAreRecordedNotFatal(t *testing.T) {
	corpus := &Corpus{}
	corpus.Add(
		Item{Suite: "s", Name: "bad_parse", Source: "void f( {"},
		Item{Suite: "s", Name: "no_loops", Source: "int x; void f() { x = 1; }"},
		Item{Suite: "s", Name: "ok", Source: "float a[64]; float b[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = a[i] + b[i]; } }"},
	)
	h := New(modelFree(t, 1))
	report, err := h.Run(context.Background(), corpus, Options{Policy: "costmodel", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (report: %+v)", report.Overall.Errors, report.Files)
	}
	byName := map[string]FileResult{}
	for _, f := range report.Files {
		byName[f.Name] = f
	}
	if byName["bad_parse"].Error == "" || byName["no_loops"].Error == "" {
		t.Fatal("expected per-file errors for unparseable and loop-free items")
	}
	if byName["ok"].Error != "" || byName["ok"].Speedup <= 0 {
		t.Fatalf("healthy item mis-scored: %+v", byName["ok"])
	}
	// Errored files must not drag the aggregates to zero.
	if report.Overall.MeanSpeedup <= 0 {
		t.Fatalf("overall mean speedup = %v, want > 0", report.Overall.MeanSpeedup)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	h := New(modelFree(t, 1))
	corpus, err := BuildCorpus("generated", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(context.Background(), &Corpus{}, Options{Policy: "brute"}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := h.Run(context.Background(), corpus, Options{}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := h.Run(context.Background(), corpus, Options{Policy: "no-such-policy"}); err == nil {
		t.Error("unknown policy accepted")
	}
	// rl without a trained agent must fail at resolution or first decide —
	// either way Run reports it rather than emitting a zeroed report.
	if report, err := h.Run(context.Background(), corpus, Options{Policy: "rl"}); err == nil {
		for _, f := range report.Files {
			if f.Error == "" {
				t.Error("rl without an agent produced a decision")
			}
		}
	}
}

func TestDeadlineTruncationIsReported(t *testing.T) {
	corpus, err := BuildCorpus("generated", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := New(modelFree(t, 2))
	// Everything deadline-aware: an expired budget degrades each search to
	// best-so-far instead of failing the file.
	report, err := h.Run(context.Background(), corpus, Options{
		Policy: "brute", Baseline: "brute", Oracle: "brute",
		Timeout: time.Nanosecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Truncated != report.Overall.Files {
		t.Fatalf("truncated = %d, want all %d files", report.Overall.Truncated, report.Overall.Files)
	}
	if report.Spec.TimeoutMS != 0 {
		t.Fatalf("sub-millisecond timeout rounded to %dms in spec", report.Spec.TimeoutMS)
	}
}

// trainToy trains an agent in process at a toy shape. The framework has no
// checkpoint fingerprint until it is saved.
func trainToy(t *testing.T) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	cfg.Embed.MaxContexts = 30
	cfg.Seed = 1
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 12, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	rc := rl.DefaultConfig(nil, nil)
	rc.Batch = 48
	rc.MiniBatch = 16
	rc.Iterations = 2
	rc.Hidden = []int{16, 16}
	fw.Train(&rc)
	return fw
}

func TestTrainedPolicyUsesEmbedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small agent")
	}
	fw := trainToy(t)
	// Saving fingerprints the model; without a version the cache is bypassed.
	if err := fw.SaveModel(io.Discard); err != nil {
		t.Fatal(err)
	}

	corpus, err := BuildCorpus("generated", 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	loops := core.NewLoopCache(core.DefaultLoopCacheEntries)
	first := runJSON(t, New(fw).WithLoopCache(loops), corpus, Options{Policy: "rl", Seed: 9, Jobs: 2})
	if _, embeds := loops.Len(); embeds == 0 {
		t.Fatal("rl evaluation left the shared loop cache without code vectors")
	}
	// A second harness over the warm shared cache must not change a byte.
	second := runJSON(t, New(fw).WithLoopCache(loops), corpus, Options{Policy: "rl", Seed: 9, Jobs: 3})
	if !bytes.Equal(first, second) {
		t.Fatal("warm loop cache changed the report")
	}
}

// TestNoStaleVectorsAfterRetraining reuses one harness across in-process
// retraining. The framework's ModelVersion stays "" throughout, so nothing
// may be cached, and every report must match a fresh harness's.
func TestNoStaleVectorsAfterRetraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small agent")
	}
	fw := trainToy(t)
	corpus, err := BuildCorpus("polybench,mibench", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Policy: "rl", Seed: 1, Jobs: 2}
	h := New(fw)
	before := runJSON(t, h, corpus, opts)
	changed := false
	for round := 1; round <= 2; round++ {
		if _, err := fw.ContinueTraining(5); err != nil {
			t.Fatal(err)
		}
		if v := fw.ModelVersion(); v != "" {
			t.Fatalf("in-process retraining produced model version %q", v)
		}
		reused := runJSON(t, h, corpus, opts)
		fresh := runJSON(t, New(fw), corpus, opts)
		if !bytes.Equal(reused, fresh) {
			t.Fatalf("round %d: reused harness served pre-retraining vectors", round)
		}
		if d, e := h.loops.Len(); d != 0 || e != 0 {
			t.Fatalf("round %d: unversioned model cached %d decisions and %d vectors", round, d, e)
		}
		changed = changed || !bytes.Equal(before, fresh)
	}
	if !changed {
		t.Fatal("retraining never changed the report; the test cannot detect stale vectors")
	}
}

func TestBuildCorpusSpecs(t *testing.T) {
	c, err := BuildCorpus("polybench,mibench,figure7", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	suites := c.Suites()
	want := []string{"figure7", "mibench", "polybench"}
	if strings.Join(suites, ",") != strings.Join(want, ",") {
		t.Fatalf("suites = %v, want %v", suites, want)
	}
	for i := 1; i < len(c.Items); i++ {
		a, b := c.Items[i-1], c.Items[i]
		if a.Suite > b.Suite || (a.Suite == b.Suite && a.Name > b.Name) {
			t.Fatalf("corpus not in canonical order at %d: %v then %v", i, a.Name, b.Name)
		}
	}
	if _, err := BuildCorpus("bogus", 0, 1); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if _, err := BuildCorpus(",", 0, 1); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestReportCSVAndSummary(t *testing.T) {
	corpus, err := BuildCorpus("generated", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := New(modelFree(t, 5))
	report, err := h.Run(context.Background(), corpus, Options{Policy: "costmodel", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var csv1, csv2 bytes.Buffer
	if err := report.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv1.String(), "\n"), "\n")
	if len(lines) != 1+len(report.Files) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(report.Files))
	}
	if !strings.HasPrefix(lines[0], "suite,name,loops,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	report2, err := h.Run(context.Background(), corpus, Options{Policy: "costmodel", Seed: 5, Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := report2.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csv2.String() {
		t.Fatal("CSV differs across runs at the same seed")
	}
	if s := report.Summary(); !strings.Contains(s, "overall") || !strings.Contains(s, "generated") {
		t.Fatalf("summary missing rows:\n%s", s)
	}
	// Timing is present on the report but absent from deterministic JSON.
	if report.Timing == nil || report.Timing.Jobs == 0 {
		t.Fatal("timing block missing")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"timing\"") {
		t.Fatal("deterministic JSON leaked the timing block")
	}
	buf.Reset()
	if err := report.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"timing\"") {
		t.Fatal("timing JSON missing the timing block")
	}
}

// TestSharedCompileMatchesPredictLoops checks the harness's shape of
// inference against the serving entrypoint: on every shipped file, each
// role's decide step over one shared compile must answer exactly what a
// separate PredictLoops call for that role answers, apart from the
// annotated source the decide step never renders.
func TestSharedCompileMatchesPredictLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small agent")
	}
	fw := trainToy(t)
	// Saving fingerprints the model, which arms the loop cache.
	if err := fw.SaveModel(io.Discard); err != nil {
		t.Fatal(err)
	}
	corpus, err := BuildCorpus("polybench,mibench,figure7,tsvc", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	loops := core.NewLoopCache(core.DefaultLoopCacheEntries)
	for _, it := range corpus.Items {
		c, err := fw.Compile(ctx, it.Source, it.Params)
		if err != nil {
			t.Fatalf("%s/%s: %v", it.Suite, it.Name, err)
		}
		for _, role := range []string{"rl", "costmodel", "brute"} {
			got, err := fw.Decide(ctx, c, core.WithPolicyName(role), core.WithLoopCache(loops))
			if err != nil {
				t.Fatalf("%s/%s %s: decide: %v", it.Suite, it.Name, role, err)
			}
			want, err := fw.PredictLoops(ctx, it.Source, it.Params, core.WithPolicyName(role))
			if err != nil {
				t.Fatalf("%s/%s %s: PredictLoops: %v", it.Suite, it.Name, role, err)
			}
			if got.Annotated != "" {
				t.Fatalf("%s/%s %s: decide step rendered annotated source", it.Suite, it.Name, role)
			}
			stripped := *want
			stripped.Annotated = ""
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(&stripped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s/%s %s: shared-compile decision differs from PredictLoops\n got %s\nwant %s", it.Suite, it.Name, role, gotJSON, wantJSON)
			}
		}
	}
	if d, e := loops.Len(); d == 0 || e == 0 {
		t.Fatalf("loop cache unused: %d decisions, %d vectors", d, e)
	}
}
