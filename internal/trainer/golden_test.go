package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/features"
	"neurovec/internal/nn"
	"neurovec/internal/rl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/train.golden")

// goldenFramework is a small code2vec framework over a few generated units:
// the embedding widths of core's unit tests, small enough to train in
// seconds.
func goldenFramework(t *testing.T) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 48
	cfg.Embed.EmbedDim = 12
	cfg.Embed.MaxContexts = 40
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 6, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	return fw
}

func goldenRL(space rl.SpaceKind) *rl.Config {
	c := rl.DefaultConfig(nil, nil)
	c.Hidden = []int{16, 16}
	c.Batch = 48
	c.MiniBatch = 16
	c.Iterations = 2
	c.LR = 1e-3
	c.Space = space
	return &c
}

// paramsHash is a SHA-256 over every parameter's name and the bits of its
// weights, in order.
func paramsHash(ps []*nn.Param) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		h.Write([]byte(p.Name))
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// curve renders floats at full precision (shortest round-trip form).
func curve(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}

// TestTrainingGolden pins trained weights across commits: PPO in each action
// space over the code2vec embedder and PPO over the hand-crafted features
// must end with the parameters and learning curves recorded in
// testdata/train.golden, bit for bit. Regenerate with -update only for a
// change meant to alter training.
func TestTrainingGolden(t *testing.T) {
	var b strings.Builder
	for _, space := range []rl.SpaceKind{rl.Discrete, rl.Continuous1, rl.Continuous2} {
		fw := goldenFramework(t)
		stats := fw.Train(goldenRL(space))
		fmt.Fprintf(&b, "ppo %s params %s\n", space, paramsHash(fw.Agent().Params()))
		fmt.Fprintf(&b, "ppo %s reward_mean %s\n", space, curve(stats.RewardMean))
		fmt.Fprintf(&b, "ppo %s loss %s\n", space, curve(stats.Loss))
	}

	fw := goldenFramework(t)
	stats := fw.TrainWithEmbedder(&features.Embedder{Loops: fw.UnitLoops()}, goldenRL(rl.Discrete))
	fmt.Fprintf(&b, "features params %s\n", paramsHash(fw.Agent().Params()))
	fmt.Fprintf(&b, "features reward_mean %s\n", curve(stats.RewardMean))
	fmt.Fprintf(&b, "features loss %s\n", curve(stats.Loss))

	got := b.String()
	path := filepath.Join("testdata", "train.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("training drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
