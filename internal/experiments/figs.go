package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/costmodel"
	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/machine"
	"neurovec/internal/policy"
	"neurovec/internal/polly"
	"neurovec/internal/rl"
	"neurovec/internal/search"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// Options scales the experiments. Quick mode is sized for unit tests and CI
// benches; full mode approaches the paper's sample counts.
type Options struct {
	Quick bool
	Seed  int64
}

// DefaultOptions runs full-size experiments.
func DefaultOptions() Options { return Options{Seed: 1} }

// QuickOptions runs the scaled-down configuration.
func QuickOptions() Options { return Options{Quick: true, Seed: 1} }

func (o Options) trainSamples() int {
	if o.Quick {
		return 400
	}
	return 5000 // the paper limits its training set to 5,000 samples
}

func (o Options) rlConfig(arch *machine.Arch) rl.Config {
	c := rl.DefaultConfig(arch.VFs(), arch.IFs())
	c.Seed = o.Seed
	if o.Quick {
		c.Batch = 200
		c.MiniBatch = 50
		c.Iterations = 20
		c.LR = 1e-3
		c.Hidden = []int{32, 32}
	} else {
		c.Batch = 500
		c.MiniBatch = 100
		c.Iterations = 60
		c.LR = 3e-4
	}
	return c
}

// framework returns a new framework over cfg, at the experiment's seed and
// embedding scale, with set loaded.
func (o Options) framework(cfg core.Config, set *dataset.Set) *core.Framework {
	cfg.Seed = o.Seed
	if o.Quick {
		cfg.Embed.OutDim = 64
		cfg.Embed.EmbedDim = 12
		cfg.Embed.MaxContexts = 48
	}
	fw := core.New(cfg)
	if err := fw.LoadSet(set); err != nil {
		panic(err)
	}
	return fw
}

// referenceSet is the generated corpus the reference agent, and every agent
// compared with it, trains on.
func (o Options) referenceSet() *dataset.Set {
	return dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 2, Seed: o.Seed})
}

// Reference trains the reference agent: the code embedding and the default
// discrete PPO agent at the experiment's scale, on the reference corpus.
// Figures 5 and 6 and the embedding and joint-agent ablations compare
// against it, so one training serves all four.
func Reference(o Options) *rl.Stats {
	fw := o.framework(core.DefaultConfig(), o.referenceSet())
	rc := o.rlConfig(fw.Cfg.Arch)
	return fw.Train(&rc)
}

// trainVariant returns the curves of rc's agent on the reference corpus
// set: ref when rc is the reference agent's configuration, else a new
// training.
func (o Options) trainVariant(ref *rl.Stats, set *dataset.Set, rc rl.Config) *rl.Stats {
	if reflect.DeepEqual(rc, o.rlConfig(core.DefaultConfig().Arch)) {
		return ref
	}
	return o.framework(core.DefaultConfig(), set).Train(&rc)
}

// ---- Figure 1 ----

// Fig1 reproduces the dot-product VF x IF grid: performance of every factor
// pair normalized to the baseline cost model's pick.
func Fig1(o Options) *Table {
	src := `
int vec[512];
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}
`
	sw, err := core.New(core.DefaultConfig()).SweepSource(context.Background(), src, nil)
	if err != nil {
		panic(err)
	}
	t := &Table{Title: "Figure 1: dot product, performance vs (VF, IF), normalized to baseline"}
	for _, ifc := range sw.IFs {
		t.Columns = append(t.Columns, fmt.Sprintf("IF=%d", ifc))
	}
	bestV, bestSpeed := "", 0.0
	for i, vf := range sw.VFs {
		vals := map[string]float64{}
		for j, ifc := range sw.IFs {
			sp := sw.Speedup[i][j]
			vals[fmt.Sprintf("IF=%d", ifc)] = sp
			if sp > bestSpeed {
				bestSpeed, bestV = sp, fmt.Sprintf("(VF=%d,IF=%d)", vf, ifc)
			}
		}
		t.Add(fmt.Sprintf("VF=%d", vf), vals)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("best %s at %.2fx over baseline (paper: (64,8) at ~1.2x)", bestV, bestSpeed),
		"baseline cost model's own pick is (VF=4, IF=2), as in the paper")
	return t
}

// ---- Figure 2 ----

// Fig2 reproduces the brute-force-vs-baseline study on the LLVM vectorizer
// test-suite analogues: optimal performance normalized to the baseline.
func Fig2(o Options) *Table {
	cfg := core.DefaultConfig()
	fw := core.New(cfg)
	t := &Table{
		Title:   "Figure 2: brute-force search vs baseline on the vectorizer test suite",
		Columns: []string{"brute/baseline"},
	}
	for _, b := range dataset.LLVMSuite() {
		start := fw.NumSamples()
		if err := fw.LoadSource(b.Name, b.Source, b.ParamValues); err != nil {
			panic(err)
		}
		end := fw.NumSamples()
		// Per-loop brute force; the suite programs are single-loop, so the
		// per-unit program measurement is exact.
		best := 0.0
		base := fw.BaselineCycles(start)
		for i := start; i < end; i++ {
			vf, ifc := fw.BruteForceLabel(i)
			best += fw.Cycles(i, vf, ifc) - fw.BaselineCycles(i)
		}
		t.Add(b.Name, map[string]float64{"brute/baseline": base / (base + best)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mean %.3fx; paper reports gaps up to ~1.5x growing with test complexity", t.Mean("brute/baseline")))
	return t
}

// ---- Figures 5 and 6: training sweeps ----

// Fig5 sweeps learning rate, network architecture, and batch size, returning
// the reward-mean and loss curves. A variant that leaves the reference
// configuration unchanged reads ref, the Reference curves.
func Fig5(ref *rl.Stats, o Options) *Curves {
	curves := NewCurves("Figure 5: hyperparameter sweep (reward mean / training loss)")
	base := o.rlConfig(core.DefaultConfig().Arch)

	type variant struct {
		label string
		mod   func(c *rl.Config)
	}
	var variants []variant
	for _, lr := range []float64{5e-3, 5e-4, 5e-5} {
		lr := lr
		variants = append(variants, variant{fmt.Sprintf("lr=%g", lr), func(c *rl.Config) { c.LR = lr }})
	}
	hiddens := [][]int{{64, 64}, {128, 128}, {256, 256}}
	if o.Quick {
		hiddens = [][]int{{16, 16}, {32, 32}, {64, 64}}
	}
	for _, h := range hiddens {
		h := h
		variants = append(variants, variant{fmt.Sprintf("net=%dx%d", h[0], h[1]), func(c *rl.Config) { c.Hidden = h }})
	}
	batches := []int{500, 1000, 4000}
	if o.Quick {
		batches = []int{64, 128, 256}
	}
	for _, bs := range batches {
		bs := bs
		variants = append(variants, variant{fmt.Sprintf("batch=%d", bs), func(c *rl.Config) {
			c.Batch = bs
			if c.MiniBatch > bs {
				c.MiniBatch = bs
			}
		}})
	}

	set := o.referenceSet()
	for _, v := range variants {
		rc := base
		v.mod(&rc)
		stats := o.trainVariant(ref, set, rc)
		curves.RewardMean[v.label] = stats.RewardMean
		curves.Loss[v.label] = stats.Loss
		curves.Steps[v.label] = stats.Steps
	}
	return curves
}

// Fig6 compares the three action-space definitions. The discrete space is
// the reference agent's, so its curves are ref, the Reference curves.
func Fig6(ref *rl.Stats, o Options) *Curves {
	curves := NewCurves("Figure 6: action-space definitions (reward mean / training loss)")
	set := o.referenceSet()
	for _, space := range []rl.SpaceKind{rl.Discrete, rl.Continuous1, rl.Continuous2} {
		rc := o.rlConfig(core.DefaultConfig().Arch)
		rc.Space = space
		stats := o.trainVariant(ref, set, rc)
		curves.RewardMean[space.String()] = stats.RewardMean
		curves.Loss[space.String()] = stats.Loss
		curves.Steps[space.String()] = stats.Steps
	}
	return curves
}

// ---- Figures 7, 8 and 9: the held-out comparisons ----

// Train builds the framework Figures 7, 8 and 9 decide with: the code
// embedding and PPO agent trained on 80% of the generated corpus (the
// paper keeps 20% out for testing). The figures only read it, so one
// training serves all three.
func Train(o Options) *core.Framework {
	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples(), Seed: o.Seed})
	train, _ := set.Split(0.2)
	fw := o.framework(core.DefaultConfig(), train)
	rc := o.rlConfig(fw.Cfg.Arch)
	fw.Train(&rc)
	return fw
}

// Fig7 evaluates the twelve held-out benchmarks under every method: random
// search, Polly, NNS, decision tree, RL, and brute-force search. Values are
// performance normalized to the baseline (higher is better).
func Fig7(fw *core.Framework, o Options) *Table {
	t := &Table{
		Title:   "Figure 7: twelve benchmarks, performance normalized to baseline",
		Columns: []string{"random", "polly", "NNS", "tree", "RL", "brute"},
	}
	// Random search draws every loop's factors from one stream, so the
	// column is a single random trial over the whole figure.
	rng := rand.New(rand.NewSource(o.Seed + 1000))
	random := policy.Func("random", func(_ context.Context, req *policy.Request) (*policy.Decision, error) {
		vf, ifc := search.Random(req.Arch.VFs(), req.Arch.IFs(), rng)
		return &policy.Decision{VF: vf, IF: ifc}, nil
	})
	tree := treePolicy(fw, o)
	nns, brute := mustPolicy(fw, "nns"), mustPolicy(fw, "brute")
	for _, b := range dataset.EvalBenchmarks() {
		r := runBenchmark(fw, b)
		t.Add(b.Name, map[string]float64{
			"random": r.decide(random),
			"polly":  r.perf(pollyCycles(fw, r.c.Program(), nil)),
			"NNS":    r.decide(nns),
			"tree":   r.decide(tree),
			"RL":     r.perf(r.rl.PredictedCycles),
			"brute":  r.decide(brute),
		})
	}
	return t.withGeoMeans()
}

// Fig8 evaluates the PolyBench analogues: Polly, RL, and the combined
// Polly+RL configuration the paper projects to 2.92x.
func Fig8(fw *core.Framework, o Options) *Table {
	t := &Table{
		Title:   "Figure 8: PolyBench, performance normalized to baseline",
		Columns: []string{"polly", "RL", "polly+RL"},
	}
	for _, b := range dataset.PolyBench() {
		r := runBenchmark(fw, b)
		t.Add(b.Name, map[string]float64{
			"polly":    r.perf(pollyCycles(fw, r.c.Program(), nil)),
			"RL":       r.perf(r.rl.PredictedCycles),
			"polly+RL": r.perf(pollyCycles(fw, r.c.Program(), r.rl.Loops)),
		})
	}
	return t.withGeoMeans()
}

// Fig9 evaluates the MiBench analogues: whole programs where loops are a
// minor fraction of runtime.
func Fig9(fw *core.Framework, o Options) *Table {
	t := &Table{
		Title:   "Figure 9: MiBench, performance normalized to baseline",
		Columns: []string{"polly", "RL"},
	}
	for _, b := range dataset.MiBench() {
		r := runBenchmark(fw, b)
		t.Add(b.Name, map[string]float64{
			"polly": r.perf(pollyCycles(fw, r.c.Program(), nil)),
			"RL":    r.perf(r.rl.PredictedCycles),
		})
	}
	return t.withGeoMeans()
}

// benchmarkRun is one benchmark compiled once, as /v2/compile and neurovec
// eval compile it, and decided by the trained agent. A figure's other
// columns decide the same compile.
type benchmarkRun struct {
	fw *core.Framework
	c  *core.Compiled
	rl *api.CompileResponse
	// scalar is the benchmark's fixed non-loop work in cycles, which
	// dilutes loop-level wins (the MiBench regime).
	scalar float64
}

func runBenchmark(fw *core.Framework, b dataset.Benchmark) *benchmarkRun {
	c, err := fw.Compile(context.Background(), b.Source, b.ParamValues, core.WithSourceName(b.Name))
	if err != nil {
		panic(err)
	}
	r := &benchmarkRun{fw: fw, c: c}
	r.rl = r.response(mustPolicy(fw, "rl"))
	r.scalar = b.ScalarWorkFactor * r.rl.BaselineCycles
	return r
}

func (r *benchmarkRun) response(p policy.Policy) *api.CompileResponse {
	resp, err := r.fw.Decide(context.Background(), r.c, core.WithPolicy(p))
	if err != nil {
		panic(err)
	}
	return resp
}

// decide returns the benchmark's performance under p's per-loop decisions.
func (r *benchmarkRun) decide(p policy.Policy) float64 {
	return r.perf(r.response(p).PredictedCycles)
}

// perf normalizes program cycles to the baseline's, with the scalar work
// added to both.
func (r *benchmarkRun) perf(cycles float64) float64 {
	return (r.rl.BaselineCycles + r.scalar) / (cycles + r.scalar)
}

// pollyCycles runs the Polly analogue's fusion and tiling over the program
// and simulates the result. Its loops take the baseline cost model's
// factors, except that transformed innermost point loops, which keep their
// original labels, take decisions' factors for their label: with the
// agent's decisions that is the combined Polly + deep RL configuration.
func pollyCycles(fw *core.Framework, irp *ir.Program, decisions []api.Decision) float64 {
	res := polly.Optimize(irp, fw.Cfg.Arch)
	plans := costmodel.Plans(res.Program, fw.Cfg.Arch)
	for _, d := range decisions {
		if l := res.Program.FindLoop(d.Label); l != nil && l.Innermost() {
			plans[l.Label] = vectorizer.New(l, fw.Cfg.Arch, d.VF, d.IF)
		}
	}
	return sim.Program(res.Program, plans, fw.Cfg.Sim).Cycles
}

// withGeoMeans notes every column's geometric mean below the table.
func (t *Table) withGeoMeans() *Table {
	for _, c := range t.Columns {
		t.Notes = append(t.Notes, fmt.Sprintf("geomean %-8s %.3fx", c, t.GeoMean(c)))
	}
	return t
}

// mustPolicy resolves a registered policy; every figure trains its agent
// before deciding, so a failure here is a bug.
func mustPolicy(fw *core.Framework, name string) policy.Policy {
	p, err := fw.Policy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// treePolicy fits Section 3.5's decision tree on the learned embedding of
// the framework's training units, labelled by brute-force search, and
// decides with it. Quick mode labels at most 320 units, because the
// labelling is the expensive part.
func treePolicy(fw *core.Framework, o Options) policy.Policy {
	vfs, ifs := fw.Cfg.Arch.VFs(), fw.Cfg.Arch.IFs()
	n := fw.NumSamples()
	step := 1
	if o.Quick && n > 320 {
		step = n / 320
	}
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i += step {
		vf, ifc := fw.BruteForceLabel(i)
		xs = append(xs, fw.Embedding(i))
		ys = append(ys, indexOf(vfs, vf)*len(ifs)+indexOf(ifs, ifc))
	}
	tree := search.TrainTree(xs, ys, len(vfs)*len(ifs), search.DefaultTreeConfig())
	return policy.Func("tree", func(_ context.Context, req *policy.Request) (*policy.Decision, error) {
		k := tree.Predict(req.Embed())
		return &policy.Decision{VF: vfs[k/len(ifs)], IF: ifs[k%len(ifs)]}, nil
	})
}

func indexOf(a []int, v int) int {
	for i, x := range a {
		if x == v {
			return i
		}
	}
	return 0
}

// TrainingEfficiency reports the sample-efficiency comparison from the
// paper's Section 4: PPO converges with ~5,000 samples, 35x fewer than the
// 35-combination brute-force sweep a supervised method would need.
func TrainingEfficiency(o Options) *Table {
	t := &Table{
		Title:   "Training efficiency: samples needed per method",
		Columns: []string{"samples"},
	}
	n := float64(o.trainSamples())
	t.Add("PPO (one compile per step)", map[string]float64{"samples": n})
	t.Add("brute force / supervised labels", map[string]float64{"samples": n * 35})
	t.Notes = append(t.Notes, "the paper: converged with 5,000 samples, 35x less than brute force")
	return t
}
