package sema

import (
	"os"
	"strings"
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/lang"
)

// FuzzSemaNoPanic holds sema to its contract: Check never panics on any
// parseable input. Seeds mirror the parser's round-trip fuzz corpus (the
// synthetic generator) plus the handwritten pathological programs of
// testdata/fuzz_seeds.txt.
func FuzzSemaNoPanic(f *testing.F) {
	for _, s := range dataset.Generate(dataset.GenConfig{N: 8, Seed: 42, Extended: true}).Samples {
		f.Add(s.Source)
	}
	data, err := os.ReadFile("testdata/fuzz_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Skip()
		}
		info := Check("fuzz.c", prog)
		if info == nil {
			t.Fatal("Check returned nil info")
		}
		for _, d := range info.Diags {
			if d.Code == "" {
				t.Errorf("diagnostic without a code: %s", d.String())
			}
		}
		// The facts table must honor its own invariants even on garbage:
		// a proven trip is always positive.
		for label, fact := range info.Facts.loops {
			if fact.TripProven && fact.Trip <= 0 {
				t.Errorf("loop %s: proven trip %d is not positive", label, fact.Trip)
			}
		}
	})
}
