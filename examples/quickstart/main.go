// Quickstart: train a small agent on the synthetic corpus and use it to
// vectorize a new C file end to end — the paper's Figure 3 pipeline in
// twenty lines: code -> loop extraction -> embedding -> RL agent -> pragma
// injection.
package main

import (
	"context"
	"fmt"
	"log"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/rl"
)

const kernel = `
float xs[2048];
float ys[2048];
void saxpy(float alpha) {
    for (int i = 0; i < 2048; i++) {
        ys[i] = alpha * xs[i] + ys[i];
    }
}
`

func main() {
	// 1. Build the framework (parser, embedder, simulator, reward).
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 64 // small embedding: quickstart-sized
	cfg.Embed.EmbedDim = 12
	fw := core.New(cfg)

	// 2. Load a synthetic training corpus (paper Section 3.2).
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 400, Seed: 1})); err != nil {
		log.Fatal(err)
	}

	// 3. Train the contextual-bandit PPO agent end to end.
	rc := rl.DefaultConfig(cfg.Arch.VFs(), cfg.Arch.IFs())
	rc.Batch, rc.MiniBatch, rc.Iterations, rc.LR = 160, 40, 15, 1e-3
	rc.Hidden = []int{32, 32}
	stats := fw.Train(&rc)
	fmt.Printf("reward mean: first %+.3f -> last %+.3f\n",
		stats.RewardMean[0], stats.RewardMean[len(stats.RewardMean)-1])

	// 4. Vectorize new code: the agent reads the loop, predicts (VF, IF),
	//    and the framework injects the pragma (paper Figure 4).
	resp, err := fw.PredictLoops(context.Background(), kernel, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range resp.Loops {
		fmt.Printf("loop %s: vectorize_width(%d) interleave_count(%d)\n", d.Label, d.VF, d.IF)
	}
	fmt.Println("---- annotated source ----")
	fmt.Print(resp.Annotated)
}
