// Package dataset provides the training corpus and the evaluation
// benchmarks.
//
// The training corpus mirrors the paper's Section 3.2: thousands of
// synthetic single-nest loop programs generated from templates derived from
// the LLVM vectorizer test suite, mutating "the names of the parameters …
// the stride, the number of iterations, the functionality, the instructions,
// and the number of nested loops". Generation is deterministic per seed.
//
// Benchmarks cover the four evaluation sets: the LLVM-vectorizer-suite
// analogues (Figure 2), the twelve held-out benchmarks (Figure 7), the
// PolyBench analogues (Figure 8) and the MiBench analogues (Figure 9).
package dataset

import (
	"fmt"
	"math/rand"
	"strings"
)

// Sample is one training program. The primary loop is the innermost loop of
// the program's single function.
type Sample struct {
	Name   string
	Family string // template family the sample came from
	Source string
}

// Set is a training dataset.
type Set struct {
	Samples []*Sample
}

// Split partitions the set into train/test by a deterministic interleave:
// every k-th sample is held out, where k = round(1/testFrac). The paper
// keeps out 20% of samples for testing.
func (s *Set) Split(testFrac float64) (train, test *Set) {
	k := int(1.0/testFrac + 0.5)
	if k < 2 {
		k = 2
	}
	train, test = &Set{}, &Set{}
	for i, sm := range s.Samples {
		if i%k == k-1 {
			test.Samples = append(test.Samples, sm)
		} else {
			train.Samples = append(train.Samples, sm)
		}
	}
	return train, test
}

// Benchmark is an evaluation program. ScalarWorkFactor expresses
// non-loop work as a multiple of the baseline's loop time (the MiBench
// regime has large factors; kernel suites have zero).
type Benchmark struct {
	Name        string
	Source      string
	ParamValues map[string]int64
	// ScalarWorkFactor adds fixed scalar work equal to this multiple of the
	// baseline-vectorized loop time — modelling whole programs where "the
	// loops constitute a minor portion of the code".
	ScalarWorkFactor float64
}

// ---- Generation ----

// GenConfig controls the synthetic generator.
type GenConfig struct {
	N    int
	Seed int64
	// Families restricts generation to the named template families
	// (empty = all). Extended-grammar families may be named here even when
	// Extended is false.
	Families []string
	// Extended adds the extended-grammar template families (structs,
	// switches, opaque calls, non-unit steps, early exits, 3-D arrays,
	// imperfect nests) to the pool. It is opt-in because enabling it changes
	// which family every sample of an existing seed draws — corpora that pin
	// generated sources byte-for-byte (goldens, bench gates) rely on the
	// default pool staying fixed.
	Extended bool
}

// Generate produces a deterministic synthetic dataset.
func Generate(cfg GenConfig) *Set {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fams := families
	if cfg.Extended {
		fams = append(append([]family{}, families...), extendedFamilies...)
	}
	if len(cfg.Families) > 0 {
		all := append(append([]family{}, families...), extendedFamilies...)
		fams = nil
		for _, name := range cfg.Families {
			for _, f := range all {
				if f.name == name {
					fams = append(fams, f)
				}
			}
		}
	}
	set := &Set{}
	for i := 0; i < cfg.N; i++ {
		f := fams[rng.Intn(len(fams))]
		src := f.gen(newNamer(rng), rng)
		set.Samples = append(set.Samples, &Sample{
			Name:   fmt.Sprintf("%s_%04d", f.name, i),
			Family: f.name,
			Source: src,
		})
	}
	return set
}

type family struct {
	name string
	gen  func(nm *namer, rng *rand.Rand) string
}

// namer hands out randomised identifier names — the paper's defence against
// the embedding latching onto parameter names.
type namer struct {
	rng  *rand.Rand
	used map[string]bool
}

func newNamer(rng *rand.Rand) *namer {
	return &namer{rng: rng, used: map[string]bool{}}
}

var namePool = []string{
	"a", "b", "c", "d", "src", "dst", "buf", "out", "in", "vec", "arr",
	"data", "tmp", "acc", "xs", "ys", "zs", "p", "q", "r", "s", "t",
	"left", "right", "res", "val", "tab", "w", "u", "v",
}

func (n *namer) array() string {
	for {
		base := namePool[n.rng.Intn(len(namePool))]
		if n.rng.Intn(3) == 0 {
			base = fmt.Sprintf("%s%d", base, n.rng.Intn(10))
		}
		if !n.used[base] {
			n.used[base] = true
			return base
		}
	}
}

func (n *namer) scalar() string { return n.array() }

func (n *namer) index() string {
	return []string{"i", "j", "k", "m", "n2", "ii"}[n.rng.Intn(6)]
}

var trips = []int{64, 100, 128, 200, 256, 500, 512, 777, 1024, 2048, 4096}

func pickTrip(rng *rand.Rand) int { return trips[rng.Intn(len(trips))] }

var intTypes = []string{"char", "short", "int", "long"}
var allTypes = []string{"char", "short", "int", "long", "float", "double"}
var fpTypes = []string{"float", "double"}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// w writes a line into the builder with fmt args.
func w(b *strings.Builder, format string, args ...any) {
	fmt.Fprintf(b, format, args...)
	b.WriteByte('\n')
}
