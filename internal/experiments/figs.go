package experiments

import (
	"fmt"
	"math/rand"

	"neurovec/internal/core"
	"neurovec/internal/costmodel"
	"neurovec/internal/dataset"
	"neurovec/internal/ir"
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

func (o Options) rlConfig(arch archLike) rl.Config {
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

func (o Options) embedScale(cfg *core.Config) {
	if o.Quick {
		cfg.Embed.OutDim = 64
		cfg.Embed.EmbedDim = 12
		cfg.Embed.MaxContexts = 48
	}
}

type archLike interface {
	VFs() []int
	IFs() []int
}

// ---- Figure 1 ----

// Fig1 reproduces the dot-product VF x IF grid: performance of every factor
// pair normalized to the baseline cost model's pick.
func Fig1(o Options) *Table {
	cfg := core.DefaultConfig()
	fw := core.New(cfg)
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
	if err := fw.LoadSource("dot", src, nil); err != nil {
		panic(err)
	}
	base := fw.BaselineCycles(0)
	t := &Table{Title: "Figure 1: dot product, performance vs (VF, IF), normalized to baseline"}
	for _, ifc := range cfg.Arch.IFs() {
		t.Columns = append(t.Columns, fmt.Sprintf("IF=%d", ifc))
	}
	bestV, bestSpeed := "", 0.0
	for _, vf := range cfg.Arch.VFs() {
		vals := map[string]float64{}
		for _, ifc := range cfg.Arch.IFs() {
			sp := base / fw.Cycles(0, vf, ifc)
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
// the reward-mean and loss curves.
func Fig5(o Options) *Curves {
	curves := NewCurves("Figure 5: hyperparameter sweep (reward mean / training loss)")
	base := o.rlConfig(archOf())

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

	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 2, Seed: o.Seed})
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		o.embedScale(&cfg)
		fw := core.New(cfg)
		if err := fw.LoadSet(set); err != nil {
			panic(err)
		}
		rc := base
		v.mod(&rc)
		stats := fw.Train(&rc)
		curves.RewardMean[v.label] = stats.RewardMean
		curves.Loss[v.label] = stats.Loss
		curves.Steps[v.label] = stats.Steps
	}
	return curves
}

// Fig6 compares the three action-space definitions.
func Fig6(o Options) *Curves {
	curves := NewCurves("Figure 6: action-space definitions (reward mean / training loss)")
	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 2, Seed: o.Seed})
	for _, space := range []rl.SpaceKind{rl.Discrete, rl.Continuous1, rl.Continuous2} {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		o.embedScale(&cfg)
		fw := core.New(cfg)
		if err := fw.LoadSet(set); err != nil {
			panic(err)
		}
		rc := o.rlConfig(archOf())
		rc.Space = space
		stats := fw.Train(&rc)
		curves.RewardMean[space.String()] = stats.RewardMean
		curves.Loss[space.String()] = stats.Loss
		curves.Steps[space.String()] = stats.Steps
	}
	return curves
}

func archOf() archLike { return core.DefaultConfig().Arch }

// ---- Figure 7: the main comparison ----

// Fig7 trains the full framework and evaluates the twelve held-out
// benchmarks under every method: baseline, random search, Polly, NNS,
// decision tree, RL, and brute-force search. Values are performance
// normalized to the baseline (higher is better).
func Fig7(o Options) *Table {
	fw, sup := trainedFramework(o)
	return evaluateBenchmarks(fw, sup, dataset.EvalBenchmarks(), o, evalAll)
}

// Fig8 evaluates the PolyBench analogues: baseline, Polly, RL, and the
// combined Polly+RL configuration the paper projects to 2.92x.
func Fig8(o Options) *Table {
	fw, sup := trainedFramework(o)
	return evaluateBenchmarks(fw, sup, dataset.PolyBench(), o, evalPolyFocus)
}

// Fig9 evaluates the MiBench analogues: whole programs where loops are a
// minor fraction of runtime.
func Fig9(o Options) *Table {
	fw, sup := trainedFramework(o)
	return evaluateBenchmarks(fw, sup, dataset.MiBench(), o, evalMiFocus)
}

type evalMode int

const (
	evalAll evalMode = iota
	evalPolyFocus
	evalMiFocus
)

// trainedFramework builds the framework, loads the training corpus, trains
// PPO, and returns it with the trained agent plus the labelled data for the
// supervised methods.
func trainedFramework(o Options) (*core.Framework, *supervised) {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	o.embedScale(&cfg)
	fw := core.New(cfg)
	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples(), Seed: o.Seed})
	train, _ := set.Split(0.2) // paper keeps out 20% for testing
	if err := fw.LoadSet(train); err != nil {
		panic(err)
	}
	rc := o.rlConfig(cfg.Arch)
	fw.Train(&rc)
	return fw, buildSupervised(fw, o)
}

// supervised holds the NNS index and decision tree built on the learned
// embedding with brute-force labels (Section 3.5).
type supervised struct {
	nns  *search.NNS
	tree *search.Tree
	vfs  []int
	ifs  []int
}

func buildSupervised(fw *core.Framework, o Options) *supervised {
	vfs, ifs := fw.Cfg.Arch.VFs(), fw.Cfg.Arch.IFs()
	s := &supervised{nns: &search.NNS{}, vfs: vfs, ifs: ifs}
	n := fw.NumSamples()
	labelBudget := n
	if o.Quick && labelBudget > 320 {
		labelBudget = 320 // brute-force labelling is the expensive part
	}
	var xs [][]float64
	var ys []int
	step := n / labelBudget
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		vf, ifc := fw.BruteForceLabel(i)
		emb := fw.Embedding(i)
		s.nns.Add(emb, vf, ifc)
		xs = append(xs, emb)
		ys = append(ys, jointClass(vfs, ifs, vf, ifc))
	}
	s.tree = search.TrainTree(xs, ys, len(vfs)*len(ifs), search.DefaultTreeConfig())
	return s
}

func jointClass(vfs, ifs []int, vf, ifc int) int {
	return indexOf(vfs, vf)*len(ifs) + indexOf(ifs, ifc)
}

func declass(vfs, ifs []int, k int) (int, int) {
	return vfs[k/len(ifs)], ifs[k%len(ifs)]
}

func indexOf(a []int, v int) int {
	for i, x := range a {
		if x == v {
			return i
		}
	}
	return 0
}

// evaluateBenchmarks measures each benchmark under the methods selected by
// mode, reporting performance normalized to the baseline. The supervised
// models must have been built over the framework's training units before
// any benchmark units were loaded.
func evaluateBenchmarks(fw *core.Framework, sup *supervised, bs []dataset.Benchmark, o Options, mode evalMode) *Table {
	cfg := fw.Cfg
	rng := rand.New(rand.NewSource(o.Seed + 1000))

	var cols []string
	switch mode {
	case evalAll:
		cols = []string{"random", "polly", "NNS", "tree", "RL", "brute"}
	case evalPolyFocus:
		cols = []string{"polly", "RL", "polly+RL"}
	case evalMiFocus:
		cols = []string{"polly", "RL"}
	}
	title := map[evalMode]string{
		evalAll:       "Figure 7: twelve benchmarks, performance normalized to baseline",
		evalPolyFocus: "Figure 8: PolyBench, performance normalized to baseline",
		evalMiFocus:   "Figure 9: MiBench, performance normalized to baseline",
	}[mode]
	t := &Table{Title: title, Columns: cols}

	for _, b := range bs {
		// Register the benchmark's loops as units for embedding/prediction;
		// the units carry the program's IR and baseline.
		start := fw.NumSamples()
		if err := fw.LoadSource(b.Name, b.Source, b.ParamValues); err != nil {
			panic(err)
		}
		end := fw.NumSamples()
		irp := fw.Units()[start].Prog
		basePlans := costmodel.Plans(irp, cfg.Arch)

		baseCycles := fw.BaselineCycles(start)
		scalar := b.ScalarWorkFactor * baseCycles
		baseTotal := baseCycles + scalar

		perf := func(cycles float64) float64 { return baseTotal / (cycles + scalar) }

		decide := func(how func(i int, loop *ir.Loop) (int, int)) float64 {
			plans := map[string]*vectorizer.Plan{}
			for i := start; i < end; i++ {
				u := fw.Units()[i]
				vf, ifc := how(i, u.Loop)
				plans[u.Loop.Label] = vectorizer.New(u.Loop, cfg.Arch, vf, ifc)
			}
			// Loops without decisions fall back to baseline.
			for label, p := range basePlans {
				if _, ok := plans[label]; !ok {
					plans[label] = p
				}
			}
			return sim.Program(irp, plans, cfg.Sim).Cycles
		}

		vals := map[string]float64{}
		for _, col := range cols {
			switch col {
			case "random":
				vals[col] = perf(decide(func(int, *ir.Loop) (int, int) {
					return search.Random(cfg.Arch.VFs(), cfg.Arch.IFs(), rng)
				}))
			case "polly":
				vals[col] = perf(pollyCycles(irp, nil, fw, start, end))
			case "polly+RL":
				vals[col] = perf(pollyCycles(irp, fw.Agent(), fw, start, end))
			case "NNS":
				vals[col] = perf(decide(func(i int, _ *ir.Loop) (int, int) {
					return sup.nns.Predict(fw.Embedding(i))
				}))
			case "tree":
				vals[col] = perf(decide(func(i int, _ *ir.Loop) (int, int) {
					return declass(sup.vfs, sup.ifs, sup.tree.Predict(fw.Embedding(i)))
				}))
			case "RL":
				vals[col] = perf(decide(func(i int, _ *ir.Loop) (int, int) {
					return mustPredict(fw, i)
				}))
			case "brute":
				vals[col] = perf(decide(func(i int, _ *ir.Loop) (int, int) {
					return fw.BruteForceLabel(i)
				}))
			}
		}
		t.Add(b.Name, vals)
	}

	for _, c := range cols {
		t.Notes = append(t.Notes, fmt.Sprintf("geomean %-8s %.3fx", c, t.GeoMean(c)))
	}
	return t
}

// mustPredict is the experiment harness's view of Framework.Predict: every
// table trains its agent before querying it, so ErrNoAgent here is a bug.
func mustPredict(fw *core.Framework, i int) (int, int) {
	vf, ifc, err := fw.Predict(i)
	if err != nil {
		panic(err)
	}
	return vf, ifc
}

// pollyCycles runs the Polly analogue over the program and simulates it;
// when agent != nil the transformed innermost loops take the agent's
// decisions (the combined Polly + deep RL configuration).
func pollyCycles(irp *ir.Program, agent *rl.Agent, fw *core.Framework, start, end int) float64 {
	res := polly.Optimize(irp, fw.Cfg.Arch)
	plans := costmodel.Plans(res.Program, fw.Cfg.Arch)
	if agent != nil {
		// Innermost point loops keep their original labels, so unit
		// predictions map directly.
		for i := start; i < end; i++ {
			u := fw.Units()[i]
			if l := res.Program.FindLoop(u.Loop.Label); l != nil && l.Innermost() {
				vf, ifc := agent.Predict(i)
				plans[l.Label] = vectorizer.New(l, fw.Cfg.Arch, vf, ifc)
			}
		}
	}
	return sim.Program(res.Program, plans, fw.Cfg.Sim).Cycles
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
