package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/nn"
	"neurovec/internal/rl"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

func smallFramework(t *testing.T, n int) *Framework {
	t.Helper()
	cfg := DefaultConfig()
	// Small embedding keeps unit tests fast; the full 340-wide model is
	// exercised by the experiment harness and benches.
	cfg.Embed.OutDim = 48
	cfg.Embed.EmbedDim = 12
	cfg.Embed.MaxContexts = 40
	fw := New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: n, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	return fw
}

func fastRL(iters int) *rl.Config {
	c := rl.DefaultConfig(nil, nil)
	c.Batch = 96
	c.MiniBatch = 32
	c.Iterations = iters
	c.LR = 1e-3
	c.Hidden = []int{32, 32}
	return &c
}

func TestLoadSetCreatesUnits(t *testing.T) {
	fw := smallFramework(t, 30)
	if fw.NumSamples() < 30 {
		t.Fatalf("units = %d, want >= 30", fw.NumSamples())
	}
	for i, u := range fw.Units() {
		if u.Loop == nil || len(u.Ctxs) == 0 {
			t.Fatalf("unit %d (%s) incomplete", i, u.Name)
		}
		if u.baselineCycles <= 0 {
			t.Fatalf("unit %d has no baseline measurement", i)
		}
	}
}

func TestRewardSignConvention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	fw := New(cfg)
	// The dot-product loop: baseline picks (4,2); wider is better, scalar
	// is worse.
	err := fw.LoadSource("dot", `
int vec[512];
int kernel() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	atBaseline := fw.Reward(0, 4, 2)
	if atBaseline != 0 {
		t.Errorf("reward at the baseline's own choice = %g, want 0", atBaseline)
	}
	scalar := fw.Reward(0, 1, 1)
	if scalar >= 0 {
		t.Errorf("reward for scalar = %g, want negative", scalar)
	}
	wide := fw.Reward(0, 32, 1)
	if wide <= 0 {
		t.Errorf("reward for wide vectorization = %g, want positive", wide)
	}
}

func TestCompileTimeoutPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	fw := New(cfg)
	// A big-bodied loop whose (64,16) build blows the compile budget.
	err := fw.LoadSource("bigbody", `
int a[4096];
int b[4096];
int c[4096];
int d[4096];
void kernel() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] * c[i] + d[i] * b[i] + c[i] * d[i] + b[i] + c[i] - d[i] + (b[i] >> 2) + (c[i] & 15);
    }
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := fw.Reward(0, 64, 16)
	if r != cfg.TimeoutPenalty {
		t.Errorf("reward at (64,16) = %g, want the timeout penalty %g", r, cfg.TimeoutPenalty)
	}
	if r2 := fw.Reward(0, 8, 2); r2 == cfg.TimeoutPenalty {
		t.Error("moderate factors must not trip the compile timeout")
	}
}

func TestBruteForceLabelBeatsBaseline(t *testing.T) {
	fw := smallFramework(t, 12)
	for i := 0; i < fw.NumSamples(); i++ {
		vf, ifc := fw.BruteForceLabel(i)
		if got := fw.Cycles(i, vf, ifc); got > fw.BaselineCycles(i)+1e-9 {
			t.Errorf("unit %d: brute force (%d,%d)=%.0f worse than baseline %.0f",
				i, vf, ifc, got, fw.BaselineCycles(i))
		}
	}
}

func TestTrainImprovesReward(t *testing.T) {
	fw := smallFramework(t, 60)
	stats := fw.Train(fastRL(12))
	first, last := stats.RewardMean[0], stats.RewardMean[len(stats.RewardMean)-1]
	if last <= first {
		t.Fatalf("training did not improve reward: %.3f -> %.3f", first, last)
	}
	t.Logf("reward mean: %.3f -> %.3f over %d iterations", first, last, len(stats.RewardMean))
}

func TestPredictWithoutTraining(t *testing.T) {
	fw := smallFramework(t, 5)
	if _, _, err := fw.Predict(0); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("untrained predict err = %v, want ErrNoAgent", err)
	}
}

func TestPredictLoopsInjectsPragmas(t *testing.T) {
	fw := smallFramework(t, 40)
	fw.Train(fastRL(8))
	src := `
float xs[1024];
float ys[1024];
void kernel(float a) {
    for (int i = 0; i < 1024; i++) {
        ys[i] = a * xs[i] + ys[i];
    }
}
`
	unitsBefore := fw.NumSamples()
	resp, err := fw.PredictLoops(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Loops) != 1 {
		t.Fatalf("decisions = %v", resp.Loops)
	}
	if !strings.Contains(resp.Annotated, "#pragma clang loop vectorize_width(") {
		t.Fatalf("no pragma in annotated output:\n%s", resp.Annotated)
	}
	if fw.NumSamples() != unitsBefore {
		t.Errorf("annotation leaked %d units", fw.NumSamples()-unitsBefore)
	}
}

func TestEmbeddingStableAndSized(t *testing.T) {
	fw := smallFramework(t, 6)
	e1 := fw.Embedding(0)
	e2 := fw.Embedding(0)
	if len(e1) != fw.Cfg.Embed.OutDim {
		t.Fatalf("embedding dim = %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestMultiLoopProgramYieldsMultipleUnits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	fw := New(cfg)
	err := fw.LoadSource("pair", `
int a[256];
int b[256];
void kernel() {
    for (int i = 0; i < 256; i++) {
        a[i] = i;
    }
    for (int i = 0; i < 256; i++) {
        b[i] = a[i] * 2;
    }
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fw.NumSamples() != 2 {
		t.Fatalf("units = %d, want 2", fw.NumSamples())
	}
}

func TestLoadRejectsLooplessPrograms(t *testing.T) {
	fw := New(DefaultConfig())
	if err := fw.LoadSource("flat", "int f() { return 42; }", nil); err == nil {
		t.Fatal("expected error for loopless program")
	}
}

// TestPredictIsServedRule: the in-process greedy decision for a unit is the
// served one, PredictObs over the unit's embedding.
func TestPredictIsServedRule(t *testing.T) {
	fw := smallFramework(t, 20)
	fw.Train(fastRL(3))
	for i := 0; i < fw.NumSamples(); i++ {
		vf, ifc, err := fw.Predict(i)
		if err != nil {
			t.Fatal(err)
		}
		if wvf, wifc := fw.Agent().PredictObs(fw.Embedding(i)); vf != wvf || ifc != wifc {
			t.Fatalf("unit %d: Predict = (%d,%d), PredictObs(Embedding) = (%d,%d)", i, vf, ifc, wvf, wifc)
		}
	}
}

func TestOnlineTrainingAdaptsToNewLoops(t *testing.T) {
	// The paper's footnote 2: keep online training active so the agent
	// learns newly observed loops. Train on the corpus, then continue
	// training after loading unseen benchmarks; the policy over the new
	// units must improve (or at least not regress) in simulated cycles.
	fw := smallFramework(t, 60)
	fw.Train(fastRL(8))

	start := fw.NumSamples()
	for _, b := range dataset.PolyBench() {
		if err := fw.LoadSource(b.Name, b.Source, b.ParamValues); err != nil {
			t.Fatal(err)
		}
	}
	end := fw.NumSamples()
	cyclesAt := func() float64 {
		total := 0.0
		for i := start; i < end; i++ {
			vf, ifc, err := fw.Predict(i)
			if err != nil {
				t.Fatal(err)
			}
			total += fw.Cycles(i, vf, ifc)
		}
		return total
	}
	before := cyclesAt()
	fw.Agent().TrainIterations(fw, 6)
	fw.Retrained()
	after := cyclesAt()
	if after > before*1.05 {
		t.Errorf("online training regressed new loops: %.3g -> %.3g cycles", before, after)
	}
	t.Logf("new-loop cycles: %.3g -> %.3g (%.2f%% change)", before, after, 100*(after/before-1))
}

// TestNewWithOptions checks that New propagates the configured seed to the
// embedding and defaults the simulator's architecture.
func TestNewWithOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	fw := New(cfg)
	if fw.Cfg.Seed != 9 || fw.Cfg.Embed.Seed != 9 {
		t.Fatalf("seed not propagated: seed=%d embed seed=%d", fw.Cfg.Seed, fw.Cfg.Embed.Seed)
	}
	if fw.Cfg.Sim.Arch == nil {
		t.Fatal("simulator arch not defaulted")
	}
}

func TestExplainAndBaselineChoice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	fw := New(cfg)
	if err := fw.LoadSource("dot", `
int vec[512];
int kernel() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}
`, nil); err != nil {
		t.Fatal(err)
	}
	vf, ifc := fw.BaselineChoice(0)
	if vf != 4 || ifc != 2 {
		t.Fatalf("baseline choice = (%d,%d), want (4,2)", vf, ifc)
	}
	b := fw.Explain(0, vf, ifc)
	if b.Total <= 0 || b.Bound == "" {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestPredictLoopsErrors(t *testing.T) {
	fw := smallFramework(t, 10)
	ctx := context.Background()
	if _, err := fw.PredictLoops(ctx, "int a[4]; void f() { for (int i = 0; i < 4; i++) { a[i] = i; } }", nil); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("err without a trained agent = %v, want ErrNoAgent", err)
	}
	fw.Train(fastRL(2))
	if _, err := fw.PredictLoops(ctx, "not C at all", nil); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := fw.PredictLoops(ctx, "int f() { return 1; }", nil); err == nil {
		t.Fatal("expected no-loops error")
	}
}

func TestLoadSourceBadInput(t *testing.T) {
	fw := New(DefaultConfig())
	if err := fw.LoadSource("bad", "void f() { for }", nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTrainWithEmbedderDefaults(t *testing.T) {
	fw := smallFramework(t, 20)
	emb := &fixedEmbedder{dim: 8}
	stats := fw.TrainWithEmbedder(emb, fastRL(2))
	if len(stats.RewardMean) != 2 {
		t.Fatalf("iterations = %d", len(stats.RewardMean))
	}
	// Config with empty action spaces must be filled from the arch.
	cfg := fastRL(1)
	cfg.VFs, cfg.IFs = nil, nil
	stats = fw.TrainWithEmbedder(emb, cfg)
	if len(stats.RewardMean) != 1 {
		t.Fatal("training with defaulted spaces failed")
	}
}

type fixedEmbedder struct{ dim int }

func (e *fixedEmbedder) NewScratch() any { return nil }
func (e *fixedEmbedder) Embed(_ any, sample int) []float64 {
	v := make([]float64, e.dim)
	v[sample%e.dim] = 1
	return v
}
func (e *fixedEmbedder) Backward(any, int, []float64) {}
func (e *fixedEmbedder) Params() []*nn.Param          { return nil }
func (e *fixedEmbedder) Dim() int                     { return e.dim }

func TestRewardDeterministic(t *testing.T) {
	fw := smallFramework(t, 4)
	if fw.Reward(1, 8, 2) != fw.Reward(1, 8, 2) {
		t.Fatal("reward not deterministic")
	}
}

// TestUnitsMatchServedCompile pins the one front end: a loaded unit is the
// loop /v2/compile serves. Over every shipped suite and an extended
// generated sample, each unit's baseline equals the served baseline, the
// unit's simulated cycles at the costmodel, brute and random decisions equal
// the served cycles, bit for bit, and the unit's brute-force label is the
// served brute decision. (random decides off the baseline without
// searching, so its cycles come from decide's shared plan map. tsvc's s113
// is the loop where a front end without semantic analysis misses the proven
// trip count.)
func TestUnitsMatchServedCompile(t *testing.T) {
	type file struct {
		name, src string
		params    map[string]int64
	}
	var files []file
	for _, suite := range [][]dataset.Benchmark{dataset.PolyBench(), dataset.MiBench(), dataset.EvalBenchmarks(), dataset.TSVC()} {
		for _, b := range suite {
			files = append(files, file{b.Name, b.Source, b.ParamValues})
		}
	}
	for _, s := range dataset.Generate(dataset.GenConfig{N: 500, Seed: 3, Extended: true}).Samples {
		files = append(files, file{s.Name, s.Source, nil})
	}

	ctx := context.Background()
	fw := New(DefaultConfig())
	for _, f := range files {
		start := fw.NumSamples()
		err := fw.LoadSource(f.name, f.src, f.params)
		if errors.Is(err, ErrNoLoops) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		c, err := fw.Compile(ctx, f.src, f.params, WithSourceName(f.name))
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"costmodel", "brute", "random"} {
			resp, err := fw.Decide(ctx, c, WithPolicyName(pol))
			if err != nil {
				t.Fatal(err)
			}
			if n := fw.NumSamples() - start; n != len(resp.Loops) {
				t.Fatalf("%s: %d units, %d served loops", f.name, n, len(resp.Loops))
			}
			for j, d := range resp.Loops {
				i := start + j
				if u := fw.Units()[i]; u.Loop.Label != d.Label {
					t.Fatalf("%s: unit %d is loop %s, served loop %d is %s", f.name, i, u.Loop.Label, j, d.Label)
				}
				if pol == "brute" {
					if vf, ifc := fw.BruteForceLabel(i); vf != d.VF || ifc != d.IF {
						t.Errorf("%s/%s: unit brute label (VF=%d, IF=%d), served brute (VF=%d, IF=%d)",
							f.name, d.Label, vf, ifc, d.VF, d.IF)
					}
				}
				if got := fw.BaselineCycles(i); math.Float64bits(got) != math.Float64bits(resp.BaselineCycles) {
					t.Errorf("%s/%s: unit baseline %v cycles, served %v", f.name, d.Label, got, resp.BaselineCycles)
				}
				if got := fw.Cycles(i, d.VF, d.IF); math.Float64bits(got) != math.Float64bits(d.Cycles) {
					t.Errorf("%s/%s: %s's (VF=%d, IF=%d) costs the unit %v cycles, served %v",
						f.name, d.Label, pol, d.VF, d.IF, got, d.Cycles)
				}
			}
		}
	}
}

// measureOracle is the reference the unit grids must reproduce: the unit's
// program simulated with (vf, ifc) at its loop and every other loop at the
// baseline decision, on a fresh copy of the plan map, with no memo.
func measureOracle(f *Framework, u *Unit, vf, ifc int) (cycles, compile float64) {
	plans := make(map[string]*vectorizer.Plan, len(u.baselinePlans))
	for k, v := range u.baselinePlans {
		plans[k] = v
	}
	plans[u.Loop.Label] = vectorizer.New(u.Loop, f.Cfg.Arch, vf, ifc)
	return sim.Program(u.Prog, plans, f.Cfg.Sim).Cycles, sim.CompileTime(u.Prog, plans, f.Cfg.Arch)
}

// shippedFramework loads the shipped suites and an extended generated
// sample as units, and returns the actions to check them at: every action
// of the arch and requests off the grid (0, 3 and 128 for VF, 0, 3 and 32
// for IF), which vectorizer.New floors or clamps.
func shippedFramework(t *testing.T) (fw *Framework, vfs, ifs []int) {
	t.Helper()
	fw = New(DefaultConfig())
	for _, suite := range [][]dataset.Benchmark{dataset.PolyBench(), dataset.MiBench(), dataset.EvalBenchmarks(), dataset.TSVC()} {
		for _, b := range suite {
			if err := fw.LoadSource(b.Name, b.Source, b.ParamValues); err != nil && !errors.Is(err, ErrNoLoops) {
				t.Fatal(err)
			}
		}
	}
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 100, Seed: 5, Extended: true})); err != nil {
		t.Fatal(err)
	}
	return fw, append(fw.Cfg.Arch.VFs(), 0, 3, 128), append(fw.Cfg.Arch.IFs(), 0, 3, 32)
}

// TestUnitGridMatchesOracle checks every unit's action grid against
// measureOracle bit for bit, cycles and compile time, at every action of
// shippedFramework, which the grid answers off the arch's grid through the
// action vectorizer.New reads them as.
func TestUnitGridMatchesOracle(t *testing.T) {
	fw, vfs, ifs := shippedFramework(t)
	for i, u := range fw.Units() {
		for _, vf := range vfs {
			for _, ifc := range ifs {
				wantCycles, wantCompile := measureOracle(fw, u, vf, ifc)
				_, got := fw.lookup(i, vf, ifc)
				if math.Float64bits(got.cycles) != math.Float64bits(wantCycles) ||
					math.Float64bits(got.compile) != math.Float64bits(wantCompile) {
					t.Fatalf("%s (VF=%d, IF=%d): grid (%v cycles, %v compile), oracle (%v, %v)",
						u.Name, vf, ifc, got.cycles, got.compile, wantCycles, wantCompile)
				}
			}
		}
	}
}

// TestEvaluatorPlanMatchesVectorizerNew checks that the evaluator, which
// clamps with the baseline plan's dependence bound instead of re-running
// the analysis, builds the plan vectorizer.New builds, field for field, for
// every unit of shippedFramework at every action.
func TestEvaluatorPlanMatchesVectorizerNew(t *testing.T) {
	fw, vfs, ifs := shippedFramework(t)
	for _, u := range fw.Units() {
		e := fw.evaluator(u.Prog, u.Loop, u.prep, u.baselinePlans)
		for _, vf := range vfs {
			for _, ifc := range ifs {
				got := e.plan(vf, ifc)
				if want := vectorizer.New(u.Loop, fw.Cfg.Arch, vf, ifc); *got != *want {
					t.Fatalf("%s (VF=%d, IF=%d): evaluator plan %+v, vectorizer.New %+v", u.Name, vf, ifc, *got, *want)
				}
			}
		}
	}
}

// TestExplainMatchesChargedCycles checks that Explain breaks a unit's loop
// down as the program's simulation charges it, within its enclosing nest.
// One execution of the loop is charged once per iteration of its
// ancestors, so moving the loop from (1, 1) to an action changes the
// program's cycles by the ancestors' trip product times the change in the
// breakdown's Total. A breakdown that ignored the enclosing loops (atax's
// inner loop at VF 16 was explained as 184 cycles and charged 240) fails.
func TestExplainMatchesChargedCycles(t *testing.T) {
	fw, vfs, ifs := shippedFramework(t)
	for i, u := range fw.Units() {
		trips := ancestorTrips(u.Prog, u.Loop)
		scalar, scalarCycles := fw.Explain(i, 1, 1).Total, fw.Cycles(i, 1, 1)
		tol := 1e-9 * math.Max(1, scalarCycles)
		for _, vf := range vfs {
			for _, ifc := range ifs {
				b := fw.Explain(i, vf, ifc)
				want := fw.Cycles(i, vf, ifc) - scalarCycles
				got := trips * (b.Total - scalar)
				if math.Abs(got-want) > tol {
					t.Fatalf("%s (VF=%d, IF=%d): Explain Total %v, so %v cycles over scalar in the program; charged %v",
						u.Name, vf, ifc, b.Total, got, want)
				}
			}
		}
	}
}

// ancestorTrips is the product of the trip counts of the loops enclosing
// l in p: how often one execution of l runs per program run.
func ancestorTrips(p *ir.Program, l *ir.Loop) float64 {
	var find func(x *ir.Loop, trips float64) (float64, bool)
	find = func(x *ir.Loop, trips float64) (float64, bool) {
		if x == l {
			return trips, true
		}
		for _, c := range x.Children {
			if t, ok := find(c, trips*float64(max(x.Trip, 0))); ok {
				return t, true
			}
		}
		return 0, false
	}
	for _, f := range p.Funcs {
		for _, root := range f.Loops {
			if t, ok := find(root, 1); ok {
				return t
			}
		}
	}
	panic("loop " + l.Label + " not in program")
}
