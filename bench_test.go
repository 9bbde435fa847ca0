// Package neurovec_test hosts the benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation section. Each bench
// regenerates its artifact end to end (training included where the figure
// requires it, except that what several figures share is trained before
// the timer starts: Figures 7, 8 and 9 time their evaluation alone, and
// Figures 5 and 6 and the embedding and joint-agent ablations time every
// training but the Reference one) and reports the headline quantities as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Quick-mode experiment options are used so
// the suite completes in minutes; the cmd/neurovec "report -full" command
// runs the full-size versions.
package neurovec_test

import (
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/experiments"
	"neurovec/internal/rl"
)

// BenchmarkFig1DotProductGrid regenerates Figure 1: the dot-product kernel
// swept over all 35 (VF, IF) pairs, normalized to the baseline cost model.
func BenchmarkFig1DotProductGrid(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig1(experiments.QuickOptions())
		for _, c := range tab.Columns {
			for _, v := range tab.Column(c) {
				best = max(best, v)
			}
		}
	}
	b.ReportMetric(best, "best/baseline")
}

// BenchmarkFig2SuiteBrute regenerates Figure 2: brute-force search over the
// LLVM-vectorizer-suite analogues, normalized to the baseline.
func BenchmarkFig2SuiteBrute(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig2(experiments.QuickOptions())
		mean = tab.Mean("brute/baseline")
	}
	b.ReportMetric(mean, "mean-brute/baseline")
}

// BenchmarkFig5HyperparamSweep regenerates Figure 5: PPO learning curves
// across learning rates, network architectures and batch sizes.
func BenchmarkFig5HyperparamSweep(b *testing.B) {
	var final float64
	ref := experiments.Reference(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := experiments.Fig5(ref, experiments.QuickOptions())
		final = curves.Final("lr=0.0005", 4)
	}
	b.ReportMetric(final, "final-reward(lr=5e-4)")
}

// BenchmarkFig6ActionSpaces regenerates Figure 6: discrete vs continuous
// action-space definitions.
func BenchmarkFig6ActionSpaces(b *testing.B) {
	var discrete float64
	ref := experiments.Reference(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := experiments.Fig6(ref, experiments.QuickOptions())
		discrete = curves.Final("discrete", 4)
	}
	b.ReportMetric(discrete, "final-reward(discrete)")
}

// BenchmarkFig7MainComparison regenerates Figure 7: the twelve held-out
// benchmarks under baseline, random, Polly, NNS, decision tree, RL and
// brute-force search.
func BenchmarkFig7MainComparison(b *testing.B) {
	var rlG, bruteG float64
	fw := experiments.Train(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig7(fw, experiments.QuickOptions())
		rlG = tab.GeoMean("RL")
		bruteG = tab.GeoMean("brute")
	}
	b.ReportMetric(rlG, "RL/baseline")
	b.ReportMetric(bruteG, "brute/baseline")
	b.ReportMetric(rlG/bruteG, "RL-vs-brute")
}

// BenchmarkFig8PolyBench regenerates Figure 8: PolyBench under Polly, RL and
// the combined configuration.
func BenchmarkFig8PolyBench(b *testing.B) {
	var combo float64
	fw := experiments.Train(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig8(fw, experiments.QuickOptions())
		combo = tab.GeoMean("polly+RL")
	}
	b.ReportMetric(combo, "polly+RL/baseline")
}

// BenchmarkFig9MiBench regenerates Figure 9: MiBench whole-program
// workloads.
func BenchmarkFig9MiBench(b *testing.B) {
	var rlG float64
	fw := experiments.Train(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig9(fw, experiments.QuickOptions())
		rlG = tab.GeoMean("RL")
	}
	b.ReportMetric(rlG, "RL/baseline")
}

// BenchmarkAblationEmbedding compares RL trained on the learned code2vec
// embedding vs the hand-crafted feature vector of the prior work the paper
// criticises, with the same agent and data: the claim under test is that
// the embedding learned end to end with the RL loss replaces hand-crafted
// features.
func BenchmarkAblationEmbedding(b *testing.B) {
	var c2v, feat float64
	ref := experiments.Reference(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := experiments.AblationEmbedding(ref, experiments.QuickOptions())
		c2v = curves.Final("code2vec (end-to-end)", 4)
		feat = curves.Final("hand-crafted features", 4)
	}
	b.ReportMetric(c2v, "final-reward(code2vec)")
	b.ReportMetric(feat, "final-reward(features)")
}

// BenchmarkAblationCompilePenalty exercises the Section 3.4 timeout rule
// on/off: with the -9 compile-timeout penalty the agent learns to avoid
// factors whose compile time blows up, and without it it picks them.
func BenchmarkAblationCompilePenalty(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		tab := experiments.AblationCompilePenalty(experiments.QuickOptions())
		rate = tab.Column("timeout-rate")[0] // row 0 is "penalty=-9 (paper)"
	}
	b.ReportMetric(rate, "timeout-rate(with-penalty)")
}

// BenchmarkAblationJointAgent reproduces the Section 3.3 design decision:
// one joint (VF, IF) agent vs two independent single-factor agents.
func BenchmarkAblationJointAgent(b *testing.B) {
	var joint, indep float64
	ref := experiments.Reference(experiments.QuickOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := experiments.AblationJointAgent(ref, experiments.QuickOptions())
		joint = curves.Final("joint", 4)
		indep = curves.Final("independent", 4)
	}
	b.ReportMetric(joint, "final-reward(joint)")
	b.ReportMetric(indep, "final-reward(independent)")
}

// BenchmarkRewardEvaluation measures the cost of one environment step (one
// "compilation + run" in the paper's terms) — the unit the sample-efficiency
// argument of Section 4 counts in.
func BenchmarkRewardEvaluation(b *testing.B) {
	fw := core.New(core.DefaultConfig())
	set := dataset.Generate(dataset.GenConfig{N: 16, Seed: 1})
	if err := fw.LoadSet(set); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Reward(i%fw.NumSamples(), 8, 2)
	}
}

// BenchmarkEmbeddingForward measures one code2vec forward pass at the
// paper's full 340-dimensional output width.
func BenchmarkEmbeddingForward(b *testing.B) {
	fw := core.New(core.DefaultConfig())
	set := dataset.Generate(dataset.GenConfig{N: 8, Seed: 1})
	if err := fw.LoadSet(set); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Embedding(i % fw.NumSamples())
	}
}

// BenchmarkPPOIteration measures one full PPO iteration (rollout + epochs)
// at quick-mode scale.
func BenchmarkPPOIteration(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 64
	cfg.Embed.EmbedDim = 12
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 64, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	rc := rl.DefaultConfig(cfg.Arch.VFs(), cfg.Arch.IFs())
	rc.Batch = 64
	rc.MiniBatch = 32
	rc.Iterations = 1
	rc.Hidden = []int{32, 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Train(&rc)
	}
}
