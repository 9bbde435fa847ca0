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

// referenceBackward is Backward as the plain scalar loops: one serial dot
// per context for dAlpha, and one loop over k per output that updates W's
// gradient and the input gradient together. It reads what ForwardInto left
// in s, and pins the arithmetic Backward must reproduce.
func referenceBackward(m *Model, s *Scratch, ctxs []Context, dvec []float64) {
	if len(ctxs) == 0 {
		return
	}
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	n := len(ctxs)
	alpha := s.alpha[:n]
	dAlpha := make([]float64, n)
	c := make([]float64, 3*d)
	dc := make([]float64, 3*d)
	for i, t := range s.triple {
		h := s.h[t*out : (t+1)*out]
		v := 0.0
		for o := 0; o < out; o++ {
			v += h[o] * dvec[o]
		}
		dAlpha[i] = v
	}
	dot := 0.0
	for i := 0; i < n; i++ {
		dot += alpha[i] * dAlpha[i]
	}
	for i, cx := range ctxs {
		h := s.h[s.triple[i]*out : (s.triple[i]+1)*out]
		dScore := alpha[i] * (dAlpha[i] - dot)
		for o := 0; o < out; o++ {
			m.Attn.G[o] += dScore * h[o]
		}
		copy(c[0:d], m.Tok.W[int(cx.Left)*d:(int(cx.Left)+1)*d])
		copy(c[d:2*d], m.Path.W[int(cx.Path)*d:(int(cx.Path)+1)*d])
		copy(c[2*d:3*d], m.Tok.W[int(cx.Right)*d:(int(cx.Right)+1)*d])
		clear(dc)
		for o := 0; o < out; o++ {
			dh := alpha[i]*dvec[o] + dScore*m.Attn.W[o]
			dpre := dh * (1 - h[o]*h[o])
			if dpre == 0 {
				continue
			}
			row := m.W.W[o*3*d : (o+1)*3*d]
			grow := m.W.G[o*3*d : (o+1)*3*d]
			m.B.G[o] += dpre
			for k := 0; k < 3*d; k++ {
				grow[k] += dpre * c[k]
				dc[k] += dpre * row[k]
			}
		}
		lg := m.Tok.G[int(cx.Left)*d : (int(cx.Left)+1)*d]
		pg := m.Path.G[int(cx.Path)*d : (int(cx.Path)+1)*d]
		rg := m.Tok.G[int(cx.Right)*d : (int(cx.Right)+1)*d]
		for k := 0; k < d; k++ {
			lg[k] += dc[k]
			pg[k] += dc[d+k]
			rg[k] += dc[2*d+k]
		}
	}
}

// TestBackwardMatchesScalar pins Backward to referenceBackward bit for bit:
// Tok.G, Path.G, W.G, B.G and Attn.G after every bag, accumulated over the
// bags as a training batch accumulates them. It runs at the production
// shape on every corpus loop bag under testModel, whose random bias sends
// some projections through math.tanh's Exp branch, and at two toy shapes
// whose odd widths leave tails in every four-wide loop. It runs with the
// axpy of every tier the CPU has (cpuTiers: AVX-512, AVX, pure Go).
func TestBackwardMatchesScalar(t *testing.T) {
	cfg := DefaultConfig()
	checkBackward(t, cfg, loopBags(t, cfg, corpusSources()))
	for _, toy := range toyConfigs {
		checkBackward(t, toy, toyBags())
	}
}

// checkBackward runs referenceBackward on one testModel, and Backward with
// each tier's axpy on an identical one per tier, over bags,
// each after ForwardInto, with a random dLoss/dv, and compares every
// gradient after every bag.
func checkBackward(t *testing.T, cfg Config, bags [][]Context) {
	t.Helper()
	installed := axpy
	defer func() { axpy = installed }()
	type kernel struct {
		name string
		fn   func(a float64, x, y []float64)
		m    *Model
	}
	var kernels []kernel
	for _, k := range cpuTiers() {
		kernels = append(kernels, kernel{k.name, k.axpy, testModel(cfg)})
	}
	ref := testModel(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var s Scratch
	dvec := make([]float64, cfg.OutDim)
	saturated := 0
	for b, bag := range bags {
		for o := range dvec {
			dvec[o] = rng.NormFloat64()
		}
		ref.ForwardInto(make([]float64, cfg.OutDim), bag, &s)
		for _, tr := range s.triple {
			for _, v := range s.h[tr*cfg.OutDim:][:cfg.OutDim] {
				if math.Abs(v) >= math.Tanh(0.625) {
					saturated++
				}
			}
		}
		referenceBackward(ref, &s, bag, dvec)
		refParams := ref.Params()
		for _, k := range kernels {
			axpy = k.fn
			k.m.Backward(&s, bag, dvec)
			for j, p := range k.m.Params() {
				for i, g := range p.G {
					if want := refParams[j].G[i]; math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s axpy, %d/%d bag %d (n=%d): %s.G[%d] = %v, scalar %v",
							k.name, cfg.OutDim, cfg.EmbedDim, b, len(bag), p.Name, i, g, want)
					}
				}
			}
		}
	}
	if cfg.OutDim == DefaultConfig().OutDim && saturated == 0 {
		t.Fatal("no projection took math.tanh's Exp branch")
	}
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

// kernelTier is one width of the projection and axpy kernels: a tier that
// init installs on a CPU that has it, or the pure-Go reference.
type kernelTier struct {
	name  string
	accum func(acc []float64, from []int, table []float64, rows []uint32, d int, w []float64, stride, k0 int, lanes []float64)
	axpy  func(a float64, x, y []float64)
}

var goTier = kernelTier{"pure-Go", accumGo, axpyGo}

// TestForwardIntoMatchesReference pins the prefix-trie, register-blocked
// forward to the plain per-context loop bit for bit, at the production
// shape on every loop bag of the shipped suites and 200 extended-grammar
// samples, and on hand-built bags that exercise the kernels' edge cases. It
// runs every tier of accum and axpy the CPU has (cpuTiers: AVX-512, AVX,
// pure Go) with the tanh kernel tanhInPlace as installed at init and as the
// pure-Go tanhGo, so an amd64 machine checks every mix. The widest tier is
// "installed"; a subtest named "X accum" runs tier X's accum and axpy.
func TestForwardIntoMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	bags := loopBags(t, cfg, corpusSources())
	accumInstalled, axpyInstalled, tanhInstalled := accum, axpy, tanhInPlace
	defer func() { accum, axpy, tanhInPlace = accumInstalled, axpyInstalled, tanhInstalled }()
	tiers := cpuTiers()
	tiers[0].name = "installed"
	for _, k := range tiers {
		for _, tanh := range []struct {
			name string
			fn   func([]float64)
		}{{"installed", tanhInstalled}, {"pure-Go", tanhGo}} {
			name := k.name + " accum, " + tanh.name + " tanh"
			switch name {
			case "installed accum, installed tanh":
				name = "installed"
			case "pure-Go accum, pure-Go tanh":
				name = "pure Go"
			}
			t.Run(name, func(t *testing.T) {
				accum, axpy, tanhInPlace = k.accum, k.axpy, tanh.fn
				checkForwardIntoReference(t, cfg, bags)
			})
		}
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

	for _, toy := range toyConfigs {
		tm := testModel(toy)
		var ts Scratch
		for _, bag := range toyBags() {
			checkBag(t, tm, "toy", bag, &ts)
		}
	}
}

// toyConfigs are two toy shapes: an odd EmbedDim with an OutDim below the
// AVX kernel's eight-output block and no multiple of the four-wide scalar
// loops, and one above the block and no multiple of it, so every block and
// tail runs.
var toyConfigs = []Config{
	{TokenVocab: 64, PathVocab: 64, EmbedDim: 5, OutDim: 7, Seed: 3},
	{TokenVocab: 64, PathVocab: 64, EmbedDim: 3, OutDim: 13, Seed: 4},
}

// toyBags are bags of 0 to 10 contexts, which fill blocks of four rows
// with every tail, then the trieBags; all their IDs fit a vocabulary of 64.
func toyBags() [][]Context {
	var bags [][]Context
	var bag []Context
	for i := 0; i < 11; i++ {
		bags = append(bags, bag)
		bag = append(bag, Context{Left: uint32(i % 4), Path: uint32(7 * i % 64), Right: uint32(3 * i % 64)})
	}
	for _, c := range trieBags() {
		bags = append(bags, c.ctxs)
	}
	return bags
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
		// under A's pair, each numbered above its parent, so rows continue
		// from other rows at both levels.
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

// BenchmarkBackward times one production-shape Backward over the same bag,
// after the ForwardInto that fills its Scratch.
func BenchmarkBackward(b *testing.B) {
	cfg := DefaultConfig()
	m := NewModel(cfg)
	ctxs := ExtractContexts(lang.MustParse(matmulSrc).Funcs[0].Loops()[0], cfg)
	var s Scratch
	m.ForwardInto(make([]float64, cfg.OutDim), ctxs, &s)
	rng := rand.New(rand.NewSource(1))
	dvec := make([]float64, cfg.OutDim)
	for o := range dvec {
		dvec[o] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for b.Loop() {
		m.Backward(&s, ctxs, dvec)
	}
}
