package experiments

import (
	"fmt"
	"math"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/features"
	"neurovec/internal/ranker"
)

// AblationEmbedding compares the paper's learned code2vec embedding against
// the hand-engineered feature vector of the prior work it criticises
// (Stock et al.): same agent, same data, different observations.
func AblationEmbedding(o Options) *Curves {
	curves := NewCurves("Ablation: learned embedding vs hand-crafted features")
	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 2, Seed: o.Seed})

	// code2vec, end to end.
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	o.embedScale(&cfg)
	fw := core.New(cfg)
	if err := fw.LoadSet(set); err != nil {
		panic(err)
	}
	rc := o.rlConfig(cfg.Arch)
	stats := fw.Train(&rc)
	curves.RewardMean["code2vec (end-to-end)"] = stats.RewardMean
	curves.Loss["code2vec (end-to-end)"] = stats.Loss

	// Hand-crafted features, frozen.
	fw2 := core.New(cfg)
	if err := fw2.LoadSet(set); err != nil {
		panic(err)
	}
	emb := &features.Embedder{Loops: fw2.UnitLoops()}
	rc2 := o.rlConfig(cfg.Arch)
	stats2 := fw2.TrainWithEmbedder(emb, &rc2)
	curves.RewardMean["hand-crafted features"] = stats2.RewardMean
	curves.Loss["hand-crafted features"] = stats2.Loss
	return curves
}

// AblationCompilePenalty studies Section 3.4's compile-time rule: with the
// -9 penalty the agent learns "not to over estimate the vectorization";
// without it (an infinite compile budget) the agent freely picks
// configurations with pathological compile times. The table reports the
// final reward and the mean compile-time blow-up of the greedy policy.
func AblationCompilePenalty(o Options) *Table {
	t := &Table{
		Title:   "Ablation: compile-time timeout penalty (Section 3.4)",
		Columns: []string{"final-reward", "mean-compile-blowup", "timeout-rate"},
	}
	set := dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 3, Seed: o.Seed, Families: []string{
		// Big-bodied families where extreme factors blow the compile budget.
		"complex_mult", "bitwise", "convert_unroll", "saxpy", "reduction",
	}})
	for _, variant := range []struct {
		label   string
		factor  float64
		penalty float64
	}{
		{"penalty=-9 (paper)", 10, -9},
		{"penalty off", math.Inf(1), 0},
	} {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.CompileTimeoutFactor = variant.factor
		cfg.TimeoutPenalty = variant.penalty
		o.embedScale(&cfg)
		fw := core.New(cfg)
		if err := fw.LoadSet(set); err != nil {
			panic(err)
		}
		rc := o.rlConfig(cfg.Arch)
		stats := fw.Train(&rc)

		// Probe the greedy policy's compile behaviour.
		blowup, timeouts := 0.0, 0
		n := fw.NumSamples()
		for i := 0; i < n; i++ {
			vf, ifc := mustPredict(fw, i)
			ratio := fw.CompileBlowup(i, vf, ifc)
			blowup += ratio
			if ratio > 10 {
				timeouts++
			}
		}
		t.Add(variant.label, map[string]float64{
			"final-reward":        finalMean(stats.RewardMean, 5),
			"mean-compile-blowup": blowup / float64(n),
			"timeout-rate":        float64(timeouts) / float64(n),
		})
	}
	return t
}

// NeuralCostModel evaluates the Section 5 learned cost model (package
// ranker) against the baseline and the RL agent on the twelve held-out
// benchmarks.
func NeuralCostModel(o Options) *Table {
	fw := Train(o)

	// Train the ranker end to end on the same units.
	rc := ranker.DefaultConfig(fw.Cfg.Arch.VFs(), fw.Cfg.Arch.IFs())
	rc.Seed = o.Seed
	if o.Quick {
		rc.Steps = 15000
		rc.Hidden = []int{48, 48}
		rc.LR = 1e-3
	} else {
		rc.Steps = 120000
	}
	model := ranker.New(fw.CodeEmbedder(), rc)
	model.Train(fw)

	t := &Table{
		Title:   "Section 5 extension: learned neural cost model vs RL agent",
		Columns: []string{"RL", "neural-cost-model", "brute"},
	}
	for _, b := range dataset.EvalBenchmarks() {
		start := fw.NumSamples()
		if err := fw.LoadSource(b.Name, b.Source, b.ParamValues); err != nil {
			panic(err)
		}
		end := fw.NumSamples()
		base, rlC, rkC, brC := 0.0, 0.0, 0.0, 0.0
		for i := start; i < end; i++ {
			base += fw.BaselineCycles(i)
			vf, ifc := mustPredict(fw, i)
			rlC += fw.Cycles(i, vf, ifc)
			vf, ifc = model.Best(i)
			rkC += fw.Cycles(i, vf, ifc)
			vf, ifc = fw.BruteForceLabel(i)
			brC += fw.Cycles(i, vf, ifc)
		}
		t.Add(b.Name, map[string]float64{
			"RL":                base / rlC,
			"neural-cost-model": base / rkC,
			"brute":             base / brC,
		})
	}
	for _, c := range t.Columns {
		t.Notes = append(t.Notes, fmt.Sprintf("geomean %-18s %.3fx", c, t.GeoMean(c)))
	}
	return t
}

// mustPredict is the ablations' view of Framework.Predict over loaded
// units: every ablation trains its agent before querying it, so ErrNoAgent
// here is a bug.
func mustPredict(fw *core.Framework, i int) (int, int) {
	vf, ifc, err := fw.Predict(i)
	if err != nil {
		panic(err)
	}
	return vf, ifc
}

func finalMean(series []float64, k int) float64 {
	if len(series) == 0 {
		return math.NaN()
	}
	if k > len(series) {
		k = len(series)
	}
	s := 0.0
	for _, v := range series[len(series)-k:] {
		s += v
	}
	return s / float64(k)
}
