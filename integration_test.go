package neurovec_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/rl"
	"neurovec/internal/search"
)

// TestEndToEndWorkflow exercises the complete user journey through the
// public API: generate a corpus, train end to end, verify learning, snapshot
// the model, restore it in a fresh framework, annotate unseen code, and
// cross-check against brute force and the supervised methods — the whole of
// the paper's Figure 3 plus the Section 3.5 extensions, in one test.
func TestEndToEndWorkflow(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 64
	cfg.Embed.EmbedDim = 12
	cfg.Embed.MaxContexts = 48
	fw := core.New(cfg)

	set := dataset.Generate(dataset.GenConfig{N: 300, Seed: 21})
	train, test := set.Split(0.2)
	if err := fw.LoadSet(train); err != nil {
		t.Fatal(err)
	}

	rc := rl.DefaultConfig(cfg.Arch.VFs(), cfg.Arch.IFs())
	rc.Batch, rc.MiniBatch, rc.Iterations, rc.LR = 160, 40, 14, 1e-3
	rc.Hidden = []int{32, 32}
	stats := fw.Train(&rc)
	if last := stats.RewardMean[len(stats.RewardMean)-1]; last <= stats.RewardMean[0] {
		t.Fatalf("training did not improve: %.3f -> %.3f", stats.RewardMean[0], last)
	}

	// Supervised methods on the learned embedding with brute-force labels.
	nns := &search.NNS{}
	for i := 0; i < 60; i++ {
		vf, ifc := fw.BruteForceLabel(i)
		nns.Add(fw.Embedding(i), vf, ifc)
	}

	// Snapshot and restore.
	var buf bytes.Buffer
	if err := fw.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	restored := core.New(cfg)
	if err := restored.LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Held-out evaluation with the restored model.
	start := restored.NumSamples()
	for _, s := range test.Samples[:15] {
		if err := restored.LoadSource(s.Name, s.Source, nil); err != nil {
			t.Fatal(err)
		}
	}
	var agentC, bruteC, baseC, nnsC float64
	for i := start; i < restored.NumSamples(); i++ {
		vf, ifc, err := restored.Predict(i)
		if err != nil {
			t.Fatal(err)
		}
		agentC += restored.Cycles(i, vf, ifc)
		bvf, bifc := restored.BruteForceLabel(i)
		bruteC += restored.Cycles(i, bvf, bifc)
		nvf, nifc := nns.Predict(restored.Embedding(i))
		nnsC += restored.Cycles(i, nvf, nifc)
		baseC += restored.BaselineCycles(i)
	}
	if agentC < bruteC*0.999 {
		t.Fatalf("agent (%.0f) beat brute force (%.0f) — impossible", agentC, bruteC)
	}
	if agentC > baseC*1.3 {
		t.Errorf("restored agent is >30%% worse than the baseline on held-out loops: %.0f vs %.0f", agentC, baseC)
	}
	t.Logf("held-out cycles: baseline=%.0f agent=%.0f nns=%.0f brute=%.0f", baseC, agentC, nnsC, bruteC)

	// Annotate new code with the restored model.
	resp, err := restored.PredictLoops(context.Background(), `
float u[1024];
float v[1024];
float dotp() {
    float acc = 0;
    for (int i = 0; i < 1024; i++) {
        acc += u[i] * v[i];
    }
    return acc;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Loops) != 1 || !strings.Contains(resp.Annotated, "#pragma clang loop vectorize_width(") {
		t.Fatalf("annotation failed: %v\n%s", resp.Loops, resp.Annotated)
	}
}
