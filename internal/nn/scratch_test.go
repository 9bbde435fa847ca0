package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randVec fills a fresh vector from rng.
func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestApplyScratchParity asserts the scratch-backed forward computes
// bit-identical outputs to the plain scalar loop across random shapes — the
// invariant that lets serving and training share one forward without
// perturbing any decision.
func TestApplyScratchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		in     int
		hidden []int
	}{
		{340, []int{256, 256, 35}}, // the paper's serving shape
		{3, []int{5, 4}},
		{64, []int{64, 64}},
		{7, []int{1}},
		{2, []int{9, 2, 9}},
	}
	for _, sh := range shapes {
		m := NewMLP("p", sh.in, sh.hidden, rng)
		s := NewScratch(m)
		for trial := 0; trial < 10; trial++ {
			x := randVec(sh.in, rng)
			want := scalarMLP(m, x)
			got := m.ApplyScratch(s, x)
			if len(got) != len(want) {
				t.Fatalf("shape %v: len %d, want %d", sh, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("shape %v: out[%d] = %g, want %g (must be bit-identical)", sh, i, got[i], want[i])
				}
			}
		}
	}
}

// TestApplyScratchDoesNotMutateInput guards the caller-ownership contract:
// the input vector must come back untouched even though activations squash
// in place internally.
func TestApplyScratchDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("p", 6, []int{4, 3}, rng)
	s := NewScratch(m)
	x := randVec(6, rng)
	orig := append([]float64(nil), x...)
	m.ApplyScratch(s, x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("input[%d] mutated: %g -> %g", i, orig[i], x[i])
		}
	}
}

// TestApplyScratchZeroAllocs is the package-level zero-allocation invariant
// at the paper's serving shape: a 340-wide code vector through two 256-unit
// layers into the 35-way (VF, IF) head.
func TestApplyScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("p", 340, []int{256, 256, 35}, rng)
	s := NewScratch(m)
	x := randVec(340, rng)
	m.ApplyScratch(s, x) // warm-up (nothing to warm, but symmetric with pools)
	if allocs := testing.AllocsPerRun(100, func() { m.ApplyScratch(s, x) }); allocs != 0 {
		t.Fatalf("ApplyScratch allocates %v per run, want 0", allocs)
	}
	dst := make([]float64, 35)
	logits := randVec(35, rng)
	if allocs := testing.AllocsPerRun(100, func() { SoftmaxTo(dst, logits) }); allocs != 0 {
		t.Fatalf("SoftmaxTo allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { LogSoftmaxTo(dst, logits) }); allocs != 0 {
		t.Fatalf("LogSoftmaxTo allocates %v per run, want 0", allocs)
	}
}

// TestScratchGrowsAcrossModels verifies one Scratch survives being reused
// against a wider network (the hot-reload case), forward and backward.
func TestScratchGrowsAcrossModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := NewMLP("s", 4, []int{3}, rng)
	big := NewMLP("b", 4, []int{128, 64}, rng)
	s := NewScratch(small)
	x := randVec(4, rng)
	want := scalarMLP(big, x)
	got := big.ApplyScratch(s, x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("grown scratch parity: out[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if dx := big.Backward(s, x, randVec(64, rng)); len(dx) != 4 {
		t.Fatalf("grown scratch backward: len(dx) = %d, want 4", len(dx))
	}
}

// TestBackwardZeroGradientFastPath asserts the g == 0 row skip is
// semantically invisible: bias and weight gradients match a reference
// computation without the fast path.
func TestBackwardZeroGradientFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense("t", 3, 4, rng)
	x := []float64{0.5, -1, 2}
	dy := []float64{0, 2, 0, -3} // rows 0 and 2 take the fast path
	clear(d.W.G)
	clear(d.B.G)
	dx := []float64{7, 7, 7} // Backward must overwrite, not accumulate into, dx
	d.Backward(dx, x, dy)
	for o := 0; o < 4; o++ {
		if d.B.G[o] != dy[o] {
			t.Fatalf("db[%d] = %g, want %g", o, d.B.G[o], dy[o])
		}
		for i := 0; i < 3; i++ {
			if want := dy[o] * x[i]; d.W.G[o*3+i] != want {
				t.Fatalf("dW[%d][%d] = %g, want %g", o, i, d.W.G[o*3+i], want)
			}
		}
	}
	for i := 0; i < 3; i++ {
		want := 0.0
		for o := 0; o < 4; o++ {
			want += dy[o] * d.W.W[o*3+i]
		}
		if math.Abs(dx[i]-want) > 1e-12 {
			t.Fatalf("dx[%d] = %g, want %g", i, dx[i], want)
		}
	}
}

// TestSoftmaxEdgeCases is the table-driven regression suite for the NaN
// bugfix: empty and fully-masked logits must yield a usable distribution.
func TestSoftmaxEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		logits []float64
		want   []float64 // nil means "any valid distribution summing to 1"
	}{
		{"empty", []float64{}, []float64{}},
		{"all -inf", []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{"single -inf", []float64{math.Inf(-1)}, []float64{1}},
		{"nan poisoned", []float64{math.NaN(), 0, math.NaN()}, nil},
		{"mixed -inf", []float64{math.Inf(-1), 0, math.Inf(-1)}, []float64{0, 1, 0}},
		{"one +inf", []float64{0, inf, 0}, nil},
		{"huge spread", []float64{-1e308, 0, 1e308}, nil},
		{"ordinary", []float64{1, 2, 3}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := SoftmaxTo(make([]float64, len(tc.logits)), tc.logits)
			if len(p) != len(tc.logits) {
				t.Fatalf("len = %d, want %d", len(p), len(tc.logits))
			}
			sum := 0.0
			for i, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("p[%d] = %g (degenerate input must not produce NaN/Inf/negative)", i, v)
				}
				sum += v
			}
			if len(p) > 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("sum = %g, want 1", sum)
			}
			if tc.want != nil {
				for i := range tc.want {
					if math.Abs(p[i]-tc.want[i]) > 1e-12 {
						t.Fatalf("p = %v, want %v", p, tc.want)
					}
				}
			}
			lp := LogSoftmaxTo(make([]float64, len(tc.logits)), tc.logits)
			for i, v := range lp {
				if math.IsNaN(v) {
					t.Fatalf("logp[%d] is NaN", i)
				}
				// exp(logp) must itself be a (sub-)probability.
				if e := math.Exp(v); e < 0 || e > 1+1e-9 {
					t.Fatalf("exp(logp[%d]) = %g out of [0,1]", i, e)
				}
			}
			// Sampling from the repaired distribution must be in range.
			if len(p) > 0 {
				rng := rand.New(rand.NewSource(1))
				for k := 0; k < 50; k++ {
					if got := SampleCategorical(p, rng); got < 0 || got >= len(p) {
						t.Fatalf("sample %d out of range", got)
					}
				}
			}
		})
	}
}

// TestShapeErrorPanics asserts every length check raises the typed value a
// serving boundary recovers on.
func TestShapeErrorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDense("t", 3, 2, rng)
	mustShapePanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			err, ok := r.(error)
			if !ok {
				t.Fatalf("%s: panic value %T is not an error", name, r)
			}
			var se *ShapeError
			if !errors.As(err, &se) {
				t.Fatalf("%s: panic value %v is not a *ShapeError", name, err)
			}
		}()
		fn()
	}
	mustShapePanic("applyto short input", func() { d.ApplyTo(make([]float64, 2), []float64{1}) })
	mustShapePanic("applyto bad dst", func() { d.ApplyTo(make([]float64, 5), []float64{1, 2, 3}) })
	mustShapePanic("backward short input", func() { d.Backward(make([]float64, 3), []float64{1}, []float64{1, 2}) })
	mustShapePanic("backward bad dx", func() { d.Backward(make([]float64, 2), []float64{1, 2, 3}, []float64{1, 2}) })
	mustShapePanic("backward bad dy", func() { d.Backward(make([]float64, 3), []float64{1, 2, 3}, []float64{1}) })
	mustShapePanic("mlp backward bad dy", func() {
		m := NewMLP("m", 3, []int{2}, rng)
		s := NewScratch(m)
		m.ApplyScratch(s, []float64{1, 2, 3})
		m.Backward(s, []float64{1, 2, 3}, []float64{1})
	})
	mustShapePanic("softmaxto bad dst", func() { SoftmaxTo(make([]float64, 1), []float64{1, 2}) })
	mustShapePanic("logsoftmaxto bad dst", func() { LogSoftmaxTo(make([]float64, 1), []float64{1, 2}) })
	mustShapePanic("aliased dst", func() {
		buf := []float64{1, 2, 3}
		NewDense("a", 3, 3, rng).ApplyTo(buf, buf)
	})
}

// TestClipGradsEdgeCases covers the audited zero/negative-budget behavior.
func TestClipGradsEdgeCases(t *testing.T) {
	p := NewParam("p", 2)
	// Zero gradients: untouched, norm 0.
	if norm := ClipGrads([]*Param{p}, 1); norm != 0 {
		t.Fatalf("zero-grad norm = %g", norm)
	}
	// Zero budget hard-zeroes.
	p.G[0], p.G[1] = 3, 4
	ClipGrads([]*Param{p}, 0)
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Fatalf("maxNorm=0 left grads %v", p.G)
	}
	// Negative budget must not flip signs.
	p.G[0], p.G[1] = 3, 4
	ClipGrads([]*Param{p}, -1)
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Fatalf("maxNorm<0 left grads %v", p.G)
	}
}
