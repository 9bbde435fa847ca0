package trainer

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/rl"
)

// smallCore keeps the embedding tiny so tests stay fast; determinism and
// resume behaviour do not depend on model size.
func smallCore() *core.Config {
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	cfg.Embed.MaxContexts = 24
	return &cfg
}

func fastRL() *rl.Config {
	c := rl.DefaultConfig(nil, nil)
	c.Hidden = []int{16, 16}
	c.Batch = 24
	c.MiniBatch = 12
	c.LR = 1e-3
	return &c
}

func testConfig(t *testing.T, iters, jobs int) Config {
	t.Helper()
	return Config{
		Core:           smallCore(),
		RL:             fastRL(),
		Corpus:         "generated",
		GenN:           3,
		Seed:           1,
		Jobs:           jobs,
		Iterations:     iters,
		CheckpointPath: filepath.Join(t.TempDir(), "ckpt.gob"),
	}
}

func runTrainer(t *testing.T, cfg Config) (*Trainer, *Result) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobsDeterminism pins the tentpole contract: a fixed seed produces
// bit-identical statistics, weights, and checkpoint bytes at any worker
// count.
func TestJobsDeterminism(t *testing.T) {
	_, res1 := runTrainer(t, testConfig(t, 2, 1))
	cfg4 := testConfig(t, 2, 4)
	_, res4 := runTrainer(t, cfg4)

	if !reflect.DeepEqual(res1.Stats, res4.Stats) {
		t.Errorf("stats differ between -jobs 1 and -jobs 4:\n%+v\n%+v", res1.Stats, res4.Stats)
	}
	if res1.ModelVersion == "" || res1.ModelVersion != res4.ModelVersion {
		t.Errorf("model versions differ: %q vs %q", res1.ModelVersion, res4.ModelVersion)
	}
	b1 := readFile(t, res1.CheckpointPath)
	b4 := readFile(t, res4.CheckpointPath)
	if !bytes.Equal(b1, b4) {
		t.Errorf("checkpoint bytes differ between -jobs 1 (%d bytes) and -jobs 4 (%d bytes)", len(b1), len(b4))
	}
}

// TestCheckpointResumeEquivalence pins full resume: training 2 iterations,
// checkpointing, and resuming to 4 must write the same final checkpoint as
// an uninterrupted 4-iteration run — optimizer moments, RNG streams, and
// learning curves included. The interleaved eval exercises curve state
// across the resume boundary, and the two legs use different worker counts
// to compound the determinism guarantee.
func TestCheckpointResumeEquivalence(t *testing.T) {
	straight := testConfig(t, 4, 2)
	straight.EvalEvery = 2
	straight.EvalOracle = "costmodel" // keep the interleaved evals cheap
	_, wantRes := runTrainer(t, straight)
	want := readFile(t, straight.CheckpointPath)

	interrupted := testConfig(t, 2, 1)
	interrupted.EvalEvery = 2
	interrupted.EvalOracle = "costmodel"
	_, firstLeg := runTrainer(t, interrupted)
	if firstLeg.Iterations != 2 {
		t.Fatalf("first leg ran %d iterations, want 2", firstLeg.Iterations)
	}

	tr, err := Resume(Config{
		Core:           smallCore(),
		Jobs:           4,
		Iterations:     4,
		CheckpointPath: interrupted.CheckpointPath,
	}, interrupted.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StartIteration != 2 || res.Iterations != 4 {
		t.Fatalf("resumed run covered iterations %d..%d, want 2..4", res.StartIteration, res.Iterations)
	}
	if !reflect.DeepEqual(res.Stats, wantRes.Stats) {
		t.Errorf("resumed stats differ from uninterrupted run:\n%+v\n%+v", res.Stats, wantRes.Stats)
	}
	if !reflect.DeepEqual(res.Curve, wantRes.Curve) {
		t.Errorf("resumed learning curve differs:\n%+v\n%+v", res.Curve, wantRes.Curve)
	}
	got := readFile(t, interrupted.CheckpointPath)
	if !bytes.Equal(want, got) {
		t.Errorf("final checkpoint bytes differ: uninterrupted %d bytes, resumed %d bytes", len(want), len(got))
	}
}

// TestInterleavedEvalCurve checks that the learning curve is populated and
// carries sane aggregates.
func TestInterleavedEvalCurve(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	cfg.EvalEvery = 2
	cfg.EvalOracle = "costmodel"
	var progressEvals int
	cfg.Progress = func(p Progress) {
		if p.Eval != nil {
			progressEvals++
		}
	}
	_, res := runTrainer(t, cfg)
	if len(res.Curve) != 1 || progressEvals != 1 {
		t.Fatalf("curve has %d points (%d via progress), want 1", len(res.Curve), progressEvals)
	}
	pt := res.Curve[0]
	if pt.Iteration != 2 || pt.Steps != res.Stats.Steps[1] {
		t.Errorf("eval point misplaced: %+v", pt)
	}
	if pt.MeanSpeedup <= 0 || pt.GeoMeanSpeedup <= 0 {
		t.Errorf("eval point has degenerate speedups: %+v", pt)
	}
}

// TestCheckpointServesAsModel checks the compatibility contract: a training
// checkpoint is a plain model snapshot to consumers that ignore the training
// section (`serve -model`, `annotate -load`).
func TestCheckpointServesAsModel(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	_, res := runTrainer(t, cfg)

	fw := core.New(*smallCore())
	if err := fw.LoadModelFile(res.CheckpointPath); err != nil {
		t.Fatalf("checkpoint not loadable as a model snapshot: %v", err)
	}
	if fw.ModelVersion() != res.ModelVersion {
		t.Errorf("loaded version %q, want %q", fw.ModelVersion(), res.ModelVersion)
	}
	resp, err := fw.PredictLoops(context.Background(),
		"float a[1024];\nfloat b[1024];\nvoid f() { for (int i = 0; i < 1024; i++) { a[i] = a[i] + b[i]; } }", nil)
	if err != nil {
		t.Fatalf("inference on loaded checkpoint: %v", err)
	}
	if len(resp.Loops) == 0 {
		t.Error("no decisions from loaded checkpoint")
	}
}

// TestResumeRejectsPlainSnapshot: a weights-only snapshot has no training
// section and must fail Resume loudly instead of restarting silently.
func TestResumeRejectsPlainSnapshot(t *testing.T) {
	fw := core.New(*smallCore())
	if err := loadCorpus(fw, "generated", 2, "", 1); err != nil {
		t.Fatal(err)
	}
	rc := fastRL()
	rc.Iterations = 1
	fw.Train(rc)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := fw.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{Core: smallCore()}, path); err == nil {
		t.Fatal("expected an error resuming from a plain model snapshot")
	}
}

// TestCancellationWritesCheckpoint: an interrupted run with final-only
// checkpointing still persists completed iterations at the boundary, and
// resuming it reproduces the uninterrupted run exactly.
func TestCancellationWritesCheckpoint(t *testing.T) {
	straight := testConfig(t, 3, 2)
	_, wantRes := runTrainer(t, straight)
	want := readFile(t, straight.CheckpointPath)

	killed := testConfig(t, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	killed.Progress = func(p Progress) {
		if p.Iteration == 1 {
			cancel() // simulate a kill between iterations 1 and 2
		}
	}
	tr, err := New(killed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(ctx)
	if err == nil {
		t.Fatal("expected a context error from the interrupted run")
	}
	if !res.CheckpointWritten {
		t.Fatal("interrupted run did not write a checkpoint")
	}
	if res.Iterations != 1 {
		t.Fatalf("interrupted run completed %d iterations, want 1", res.Iterations)
	}

	tr2, err := Resume(Config{Core: smallCore(), Iterations: 3, CheckpointPath: killed.CheckpointPath}, killed.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tr2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Stats, wantRes.Stats) {
		t.Errorf("resumed-after-kill stats differ:\n%+v\n%+v", res2.Stats, wantRes.Stats)
	}
	if got := readFile(t, killed.CheckpointPath); !bytes.Equal(want, got) {
		t.Errorf("resumed-after-kill checkpoint differs from uninterrupted run")
	}
}

// TestTrainMatchesTrainer pins the single PPO loop: in-process training
// through Framework.Train and a trainer run over the same corpus, seed, RL
// config and iteration count end with weights equal bit for bit.
func TestTrainMatchesTrainer(t *testing.T) {
	const iters = 2
	cfg := testConfig(t, iters, 2)
	cfg.CheckpointPath = ""
	tr, _ := runTrainer(t, cfg)

	c := *smallCore()
	c.Seed = cfg.Seed
	fw := core.New(c)
	if err := loadCorpus(fw, cfg.Corpus, cfg.GenN, "", cfg.Seed); err != nil {
		t.Fatal(err)
	}
	rc := *fastRL()
	rc.Iterations = iters
	fw.Train(&rc)

	want, got := tr.Framework().Agent().Params(), fw.Agent().Params()
	if len(want) != len(got) {
		t.Fatalf("param count %d, want %d", len(got), len(want))
	}
	for i, p := range want {
		for j, w := range p.W {
			if math.Float64bits(got[i].W[j]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] = %v after Framework.Train, %v after trainer.Run", p.Name, j, got[i].W[j], w)
			}
		}
	}
}

// TestResumedRunClearsVersion: a resumed run moves the weights past the
// checkpoint it started from, so without checkpointing neither the framework
// nor the result may name that checkpoint; with checkpointing the result
// names the last checkpoint written.
func TestResumedRunClearsVersion(t *testing.T) {
	first := testConfig(t, 1, 2)
	_, firstRes := runTrainer(t, first)
	if firstRes.ModelVersion == "" {
		t.Fatal("first leg wrote a checkpoint but reports no version")
	}

	tr, err := Resume(Config{Core: smallCore(), Jobs: 2, Iterations: 3}, first.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Framework().ModelVersion(); got != firstRes.ModelVersion {
		t.Fatalf("before Run the resumed framework reports %q, want the checkpoint's %q", got, firstRes.ModelVersion)
	}
	res, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Framework().ModelVersion(); got != "" {
		t.Errorf("Framework().ModelVersion() = %q after 2 uncheckpointed iterations, want \"\"", got)
	}
	if res.ModelVersion != "" {
		t.Errorf("Result.ModelVersion = %q with checkpointing disabled, want \"\"", res.ModelVersion)
	}

	ckpt := filepath.Join(t.TempDir(), "resumed.gob")
	tr, err = Resume(Config{Core: smallCore(), Jobs: 2, Iterations: 3, CheckpointPath: ckpt}, first.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fw := core.New(*smallCore())
	if err := fw.LoadModelFile(ckpt); err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != fw.ModelVersion() || res.ModelVersion == firstRes.ModelVersion {
		t.Errorf("Result.ModelVersion = %q, want the last checkpoint's %q (resumed from %q)",
			res.ModelVersion, fw.ModelVersion(), firstRes.ModelVersion)
	}
}

// dirUnits returns the unit names a trainer built with Config.Dir = dir adds
// on top of the same run without it.
func dirUnits(t *testing.T, dir string) ([]string, error) {
	t.Helper()
	cfg := Config{Core: smallCore(), RL: fastRL(), Corpus: "figure7", Seed: 1}
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	tr, err := New(cfg)
	if err != nil {
		return nil, err
	}
	var names []string
	seen := map[string]bool{}
	for _, u := range base.Framework().Units() {
		seen[u.Name] = true
	}
	for _, u := range tr.Framework().Units() {
		if !seen[u.Name] {
			names = append(names, u.Name)
		}
	}
	return names, nil
}

func writeFiles(t *testing.T, files map[string]string) {
	t.Helper()
	for path, src := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadDir: every .c file with loops under Config.Dir becomes training
// units; loopless and non-C files are skipped.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, map[string]string{
		filepath.Join(dir, "a.c"):      "int a[64];\nvoid f() { for (int i = 0; i < 64; i++) { a[i] = i; } }\n",
		filepath.Join(dir, "noloop.c"): "int g() { return 7; }\n",
		filepath.Join(dir, "b.c"):      "float z[32];\nvoid h() { for (int i = 0; i < 32; i++) { z[i] = 0; } }\n",
		filepath.Join(dir, "skip.txt"): "not C at all",
	})
	names, err := dirUnits(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dir/a.c/L0", "dir/b.c/L0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory units = %v, want %v (loopless and non-C skipped)", names, want)
	}
}

// TestLoadDirNested: the directory is walked recursively.
func TestLoadDirNested(t *testing.T) {
	dir := t.TempDir()
	loop := func(name string) string {
		return "int " + name + "[64];\nvoid f_" + name + "() { for (int i = 0; i < 64; i++) { " + name + "[i] = i; } }\n"
	}
	writeFiles(t, map[string]string{
		filepath.Join(dir, "a.c"):                  loop("a"),
		filepath.Join(dir, "sub", "b.c"):           loop("b"),
		filepath.Join(dir, "sub", "deeper", "c.c"): loop("c"),
		filepath.Join(dir, "sub", "noloop.c"):      "int g() { return 7; }\n", // ErrNoLoops: skipped, not fatal
		filepath.Join(dir, "sub", "notes.md"):      "# not C\n",               // non-.c: ignored
	})
	names, err := dirUnits(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dir/a.c/L0", "dir/sub/b.c/L0", "dir/sub/deeper/c.c/L0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory units = %v, want %v (nested dirs walked)", names, want)
	}
}

// TestLoadDirPropagatesParseErrors: only ErrNoLoops is skippable; a file
// that does not parse fails the run's setup.
func TestLoadDirPropagatesParseErrors(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, map[string]string{filepath.Join(dir, "bad.c"): "void f() { for }"})
	if _, err := dirUnits(t, dir); err == nil {
		t.Fatal("expected a parse error to fail trainer.New")
	}
}
