package core

import (
	"context"
	"io"
	"testing"

	"neurovec/internal/dataset"
)

// The allocation guards run at the production shape (DefaultConfig: code2vec
// 340/32/120 and the paper's policy trunk) with untrained weights, over the
// four generated sources below. Allocation counts depend on the code and
// the Go toolchain, not on the weights or timing, so each ceiling is
// today's count: one extra heap allocation per call fails it. Run them
// with `go test -run Alloc ./...`; they skip under the race detector, whose
// sync.Pool drops items at random.

// productionFramework returns a fingerprinted production-shape framework
// with the guard sources loaded as units, and the sources themselves.
func productionFramework(t *testing.T) (*Framework, []string) {
	t.Helper()
	fw := New(DefaultConfig())
	fw.InitAgent(nil)
	if err := fw.SaveModel(io.Discard); err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, s := range dataset.Generate(dataset.GenConfig{N: 4, Seed: 7}).Samples {
		if err := fw.LoadSource(s.Name, s.Source, nil); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, s.Source)
	}
	return fw, srcs
}

// allocsPerCall is allocs/op as `go test -bench` reports it: the heap
// allocations of one call of fn per input, divided by n and truncated.
func allocsPerCall(n int, fn func(i int)) int {
	perRound := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return int(perRound) / n
}

func checkCeiling(t *testing.T, what string, got, ceiling int) {
	t.Helper()
	if got > ceiling {
		t.Errorf("%s allocates %d per call, ceiling %d", what, got, ceiling)
	}
	t.Logf("%s: %d", what, got)
}

func TestPredictLoopsAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fw, srcs := productionFramework(t)
	ctx := context.Background()
	for pol, ceiling := range map[string]int{"costmodel": 229, "rl": 240, "brute": 269} {
		opts := []InferOption{WithPolicyName(pol)}
		got := allocsPerCall(len(srcs), func(i int) {
			if _, err := fw.PredictLoops(ctx, srcs[i], nil, opts...); err != nil {
				panic(err)
			}
		})
		checkCeiling(t, "PredictLoops "+pol, got, ceiling)
	}
}

func TestRewardAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fw, _ := productionFramework(t)
	// AllocsPerRun's warm-up call builds every unit's action grid; Reward
	// is then a lookup.
	got := allocsPerCall(fw.NumSamples(), func(i int) { fw.Reward(i, 8, 2) })
	checkCeiling(t, "Reward", got, 0)
}
