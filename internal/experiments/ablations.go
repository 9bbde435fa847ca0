package experiments

import (
	"math"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/features"
	"neurovec/internal/rl"
)

// AblationEmbedding compares the paper's learned code2vec embedding against
// the hand-engineered feature vector of the prior work it criticises
// (Stock et al.): same agent, same data, different observations. The
// code2vec curves are ref, the Reference curves.
func AblationEmbedding(ref *rl.Stats, o Options) *Curves {
	curves := NewCurves("Ablation: learned embedding vs hand-crafted features")
	curves.RewardMean["code2vec (end-to-end)"] = ref.RewardMean
	curves.Loss["code2vec (end-to-end)"] = ref.Loss

	// Hand-crafted features, frozen.
	fw := o.framework(core.DefaultConfig(), o.referenceSet())
	rc := o.rlConfig(fw.Cfg.Arch)
	stats := fw.TrainWithEmbedder(&features.Embedder{Loops: fw.UnitLoops()}, &rc)
	curves.RewardMean["hand-crafted features"] = stats.RewardMean
	curves.Loss["hand-crafted features"] = stats.Loss
	return curves
}

// AblationCompilePenalty studies Section 3.4's compile-time rule: with the
// -9 penalty the agent learns "not to over estimate the vectorization";
// without it (an infinite compile budget) the agent freely picks
// configurations with pathological compile times. The table reports the
// final reward and the mean compile-time blow-up of the greedy policy.
//
// In quick mode the two rows are identical at full precision. The penalty
// can fire there: 12 of the corpus's 4655 (unit, VF, IF) triples exceed the
// 10x budget, the largest at 45.9x. But no quick rollout samples one of
// them, so the penalty never changes a reward. At full size 153 of 58310
// triples exceed it.
func AblationCompilePenalty(o Options) *Table {
	t := &Table{
		Title:   "Ablation: compile-time timeout penalty (Section 3.4)",
		Columns: []string{"final-reward", "mean-compile-blowup", "timeout-rate"},
	}
	set := o.penaltySet()
	for _, variant := range []struct {
		label   string
		factor  float64
		penalty float64
	}{
		{"penalty=-9 (paper)", 10, -9},
		{"penalty off", math.Inf(1), 0},
	} {
		cfg := core.DefaultConfig()
		cfg.CompileTimeoutFactor = variant.factor
		cfg.TimeoutPenalty = variant.penalty
		fw := o.framework(cfg, set)
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

// penaltySet is the compile-penalty ablation's corpus.
func (o Options) penaltySet() *dataset.Set {
	return dataset.Generate(dataset.GenConfig{N: o.trainSamples() / 3, Seed: o.Seed, Families: []string{
		// Big-bodied families where extreme factors blow the compile budget.
		"complex_mult", "bitwise", "convert_unroll", "saxpy", "reduction",
	}})
}

// mustPredict is the compile-penalty ablation's view of Framework.Predict
// over loaded units: it trains its agent before querying it, so ErrNoAgent
// here is a bug.
func mustPredict(fw *core.Framework, i int) (int, int) {
	vf, ifc, err := fw.Predict(i)
	if err != nil {
		panic(err)
	}
	return vf, ifc
}
