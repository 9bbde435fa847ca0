package lang_test

import (
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/lang"
)

// TestTokenizeOneAllocation requires Tokenize to size its token slice once:
// one allocation per call over every shipped kernel and generated sample.
func TestTokenizeOneAllocation(t *testing.T) {
	var srcs []string
	for _, bs := range [][]dataset.Benchmark{dataset.PolyBench(), dataset.MiBench(), dataset.TSVC(), dataset.EvalBenchmarks()} {
		for _, b := range bs {
			srcs = append(srcs, b.Source)
		}
	}
	for _, s := range dataset.Generate(dataset.GenConfig{N: 200, Seed: 1, Extended: true}).Samples {
		srcs = append(srcs, s.Source)
	}
	for i, src := range srcs {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := lang.Tokenize(src); err != nil {
				t.Fatalf("source %d: %v", i, err)
			}
		})
		if allocs != 1 {
			t.Fatalf("source %d (%d bytes): Tokenize makes %v allocations, want 1", i, len(src), allocs)
		}
	}
}
