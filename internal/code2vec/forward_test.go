package code2vec

import (
	"math"
	"math/rand"
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/extractor"
	"neurovec/internal/lang"
	"neurovec/internal/nn"
)

// referenceForward is the plain per-context projection loop: each context's
// input c = [Tok[Left] | Path[Path] | Tok[Right]] is concatenated, and every
// output's pre-activation is B[o] plus W[o][k]·c[k] summed in k order. It
// returns the code vector, the squashed projections and the attention
// weights, and pins the arithmetic ForwardInto must reproduce.
func referenceForward(m *Model, ctxs []Context) (vec []float64, h [][]float64, alpha []float64) {
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	vec = make([]float64, out)
	if len(ctxs) == 0 {
		return vec, nil, nil
	}
	h = make([][]float64, len(ctxs))
	scores := make([]float64, len(ctxs))
	c := make([]float64, 3*d)
	for i, cx := range ctxs {
		copy(c[0:d], m.Tok.W[int(cx.Left)*d:(int(cx.Left)+1)*d])
		copy(c[d:2*d], m.Path.W[int(cx.Path)*d:(int(cx.Path)+1)*d])
		copy(c[2*d:3*d], m.Tok.W[int(cx.Right)*d:(int(cx.Right)+1)*d])
		h[i] = make([]float64, out)
		for o := 0; o < out; o++ {
			row := m.W.W[o*3*d : (o+1)*3*d]
			s := m.B.W[o]
			for k, cv := range c {
				s += row[k] * cv
			}
			h[i][o] = math.Tanh(s)
		}
		sc := 0.0
		for o := 0; o < out; o++ {
			sc += m.Attn.W[o] * h[i][o]
		}
		scores[i] = sc
	}
	alpha = nn.SoftmaxTo(make([]float64, len(scores)), scores)
	for i := range ctxs {
		for o := 0; o < out; o++ {
			vec[o] += alpha[i] * h[i][o]
		}
	}
	return vec, h, alpha
}

// testModel is NewModel with a random bias, so that where the kernel adds
// B[o] into each sum shows in the bits (NewModel starts B at zero).
func testModel(cfg Config) *Model {
	m := NewModel(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for o := range m.B.W {
		m.B.W[o] = rng.NormFloat64()
	}
	return m
}

// loopBags extracts, at cfg, the context bag of every loop's outermost nest
// in each source, as the compiler does per loop.
func loopBags(t *testing.T, cfg Config, srcs []string) [][]Context {
	t.Helper()
	var bags [][]Context
	for _, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, info := range extractor.Loops(p) {
			bags = append(bags, ExtractContexts(info.Outermost, cfg))
		}
	}
	return bags
}

func corpusSources() []string {
	var srcs []string
	for _, bs := range [][]dataset.Benchmark{dataset.PolyBench(), dataset.MiBench(), dataset.TSVC(), dataset.EvalBenchmarks()} {
		for _, b := range bs {
			srcs = append(srcs, b.Source)
		}
	}
	for _, s := range dataset.Generate(dataset.GenConfig{N: 200, Seed: 1, Extended: true}).Samples {
		srcs = append(srcs, s.Source)
	}
	return srcs
}

// forward runs ForwardInto on a fresh Scratch and returns the code vector
// and the Scratch, which holds what Backward reads.
func forward(m *Model, ctxs []Context) ([]float64, *Scratch) {
	s := new(Scratch)
	return m.ForwardInto(make([]float64, m.Cfg.OutDim), ctxs, s), s
}

// checkBag requires ForwardInto, through the shared scratch s, to reproduce
// referenceForward's bits: the code vector, and the projections and
// attention weights it leaves in s for Backward.
func checkBag(t *testing.T, m *Model, name string, ctxs []Context, s *Scratch) {
	t.Helper()
	want, wantH, wantAlpha := referenceForward(m, ctxs)
	got := m.ForwardInto(make([]float64, m.Cfg.OutDim), ctxs, s)
	for o := range want {
		if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
			t.Fatalf("%s (n=%d): ForwardInto out[%d] = %v, reference %v", name, len(ctxs), o, got[o], want[o])
		}
	}
	out := m.Cfg.OutDim
	for i := range ctxs {
		if math.Float64bits(s.alpha[i]) != math.Float64bits(wantAlpha[i]) {
			t.Fatalf("%s: scratch alpha[%d] = %v, reference %v", name, i, s.alpha[i], wantAlpha[i])
		}
		h := s.h[s.triple[i]*out : (s.triple[i]+1)*out]
		for o := range wantH[i] {
			if math.Float64bits(h[o]) != math.Float64bits(wantH[i][o]) {
				t.Fatalf("%s: scratch h[%d][%d] = %v, reference %v", name, i, o, h[o], wantH[i][o])
			}
		}
	}
}

// TestForwardIntoMatchesReference pins the prefix-trie, register-blocked
// kernel to the plain per-context loop bit for bit, at the production shape
// on every loop bag of the shipped suites and 200 extended-grammar samples,
// and on hand-built bags that exercise the kernel's edge cases. It runs once
// with the kernel accum installed at init (AVX on amd64 CPUs that have it)
// and once with the pure-Go accumGo, so an amd64 machine checks both.
func TestForwardIntoMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	bags := loopBags(t, cfg, corpusSources())
	installed := accum
	defer func() { accum = installed }()
	for _, k := range []struct {
		name string
		fn   func(acc, table []float64, rows []uint32, d int, w []float64, stride, k0 int, quad []float64)
	}{
		{"installed", installed},
		{"pure Go", accumGo},
	} {
		t.Run(k.name, func(t *testing.T) {
			accum = k.fn
			checkForwardIntoReference(t, cfg, bags)
		})
	}
}

func checkForwardIntoReference(t *testing.T, cfg Config, bags [][]Context) {
	m := testModel(cfg)
	var s Scratch
	contexts := 0
	for _, bag := range bags {
		contexts += len(bag)
		checkBag(t, m, "corpus bag", bag, &s)
	}
	if len(bags) < 250 || contexts < 10000 {
		t.Fatalf("only %d bags with %d contexts; the corpus shrank", len(bags), contexts)
	}

	big := bags[0]
	for _, b := range bags {
		if len(b) > len(big) {
			big = b
		}
	}
	if len(big) != cfg.MaxContexts {
		t.Fatalf("largest bag has %d contexts, want the budget %d", len(big), cfg.MaxContexts)
	}
	sameLeft := make([]Context, 9)
	distinct := make([]Context, 9)
	for i := range sameLeft {
		sameLeft[i] = Context{Left: 17, Path: uint32(100 + i), Right: uint32(i)}
		distinct[i] = Context{Left: uint32(i), Path: uint32(100 + i), Right: 17}
	}
	budget := cfg
	budget.MaxContexts = 10
	downsampled := ExtractContexts(loopStmt(t, matmulSrc), budget)
	if len(downsampled) != 10 {
		t.Fatalf("downsampled bag has %d contexts, want 10", len(downsampled))
	}
	for _, c := range []struct {
		name string
		ctxs []Context
	}{
		{"empty", nil},
		{"single", big[:1]},
		{"odd", big[:7]},
		{"even", big[:8]},
		{"same left", sameLeft},
		{"distinct left", distinct},
		{"downsampled", downsampled},
	} {
		checkBag(t, m, c.name, c.ctxs, &s)
	}
	for _, c := range trieBags() {
		checkBag(t, m, c.name, c.ctxs, &s)
	}

	// Toy shapes: an odd EmbedDim with an OutDim below the AVX kernel's
	// eight-output block and no multiple of the scalar kernel's four, and
	// one above the block and no multiple of it, so block and tail both run.
	// Bags of up to 10 contexts fill blocks of four rows with every tail.
	for _, toy := range []Config{
		{TokenVocab: 64, PathVocab: 64, EmbedDim: 5, OutDim: 7, Seed: 3},
		{TokenVocab: 64, PathVocab: 64, EmbedDim: 3, OutDim: 13, Seed: 4},
	} {
		tm := testModel(toy)
		var ts Scratch
		var bag []Context
		for i := 0; i < 11; i++ {
			checkBag(t, tm, "toy", bag, &ts)
			bag = append(bag, Context{Left: uint32(i % 4), Path: uint32(7 * i % 64), Right: uint32(3 * i % 64)})
		}
		for _, c := range trieBags() {
			checkBag(t, tm, "toy "+c.name, c.ctxs, &ts)
		}
	}
}

// trieBags are hand-built bags that share prefixes at every level of
// ForwardInto's trie; all their IDs fit a vocabulary of 64.
func trieBags() []struct {
	name string
	ctxs []Context
} {
	a := Context{Left: 3, Path: 5, Right: 7}
	b := Context{Left: 3, Path: 6, Right: 7}
	c := Context{Left: 3, Path: 5, Right: 8}
	identical := make([]Context, 9)
	sameLeftPath := make([]Context, 9)
	for i := range identical {
		identical[i] = a
		sameLeftPath[i] = Context{Left: 11, Path: 13, Right: uint32(i)}
	}
	return []struct {
		name string
		ctxs []Context
	}{
		{"identical", identical},
		{"same left and path", sameLeftPath},
		// A B A C B A: B is a new pair under A's left and C a new triple
		// under A's pair, each numbered above its parent, so the in-place
		// row copies run at both levels.
		{"interleaved", []Context{a, b, a, c, b, a}},
		// Two lefts whose pairs and triples interleave.
		{"interleaved paths", []Context{
			{Left: 1, Path: 2, Right: 3}, {Left: 1, Path: 9, Right: 3},
			{Left: 2, Path: 2, Right: 3}, {Left: 1, Path: 2, Right: 4},
			{Left: 2, Path: 9, Right: 3}, {Left: 1, Path: 9, Right: 3},
			{Left: 1, Path: 2, Right: 3},
		}},
	}
}

const matmulSrc = `
float A[64][64];
float B[64][64];
float C[64][64];
void f() {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            float s = 0;
            for (int k = 0; k < 64; k++) {
                s += A[i][k] * B[k][j];
            }
            C[i][j] = s;
        }
    }
}
`

// BenchmarkForwardInto times one production-shape forward over a 120-context
// bag (the matrix-multiply nest at the default budget).
func BenchmarkForwardInto(b *testing.B) {
	cfg := DefaultConfig()
	m := NewModel(cfg)
	ctxs := ExtractContexts(lang.MustParse(matmulSrc).Funcs[0].Loops()[0], cfg)
	dst := make([]float64, cfg.OutDim)
	var s Scratch
	b.ReportAllocs()
	for b.Loop() {
		m.ForwardInto(dst, ctxs, &s)
	}
}
