package rl_test

import (
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/nn"
	"neurovec/internal/rl"
)

// TestRolloutEmbedForwardZeroAlloc: at the production shape (the 340-wide
// code2vec model of core.DefaultConfig and the paper's 64x64 trunk), a
// steady-state rollout slot's embed plus policy forward allocates nothing,
// and neither does a gradient step of the PPO update once Adam's state
// exists.
func TestRolloutEmbedForwardZeroAlloc(t *testing.T) {
	if rl.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 4, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	n := fw.NumSamples()
	cfg := rl.DefaultConfig(nil, nil)
	cfg.Batch = 2 * n
	agent := fw.InitAgent(&cfg)
	for i := 0; i < n; i++ {
		agent.RolloutForward(i) // grow the pooled scratch to every bag
	}
	for i := 0; i < n; i++ {
		if allocs := testing.AllocsPerRun(20, func() { agent.RolloutForward(i) }); allocs != 0 {
			t.Fatalf("sample %d: embed + policy forward allocates %v per run, want 0", i, allocs)
		}
	}
	batch := agent.CollectBatch(fw, cfg.Seed, 0, 1)
	opt := nn.NewAdam(cfg.LR)
	agent.Update(batch, opt) // allocates Adam's moments
	if allocs := testing.AllocsPerRun(10, func() { agent.Update(batch, opt) }); allocs != 0 {
		t.Fatalf("update over %d transitions allocates %v per run, want 0", batch.Len(), allocs)
	}
}
