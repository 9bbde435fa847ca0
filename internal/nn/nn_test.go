package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericGrad estimates dLoss/dParam[i] by central differences.
func numericGrad(f func() float64, w []float64, i int) float64 {
	const h = 1e-6
	old := w[i]
	w[i] = old + h
	up := f()
	w[i] = old - h
	down := f()
	w[i] = old
	return (up - down) / (2 * h)
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("t", 4, 3, rng)
	x := []float64{0.3, -1.2, 0.7, 2.0}
	target := []float64{1, 0, -1}

	loss := func() float64 {
		y := d.ApplyTo(make([]float64, d.Out), x)
		s := 0.0
		for i := range y {
			diff := y[i] - target[i]
			s += 0.5 * diff * diff
		}
		return s
	}

	y := d.ApplyTo(make([]float64, d.Out), x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	clear(d.W.G)
	clear(d.B.G)
	dx := d.Backward(make([]float64, d.In), x, dy)

	for i := 0; i < d.W.Len(); i++ {
		want := numericGrad(loss, d.W.W, i)
		if math.Abs(d.W.G[i]-want) > 1e-4 {
			t.Errorf("dW[%d] = %g, numeric %g", i, d.W.G[i], want)
		}
	}
	for i := 0; i < d.B.Len(); i++ {
		want := numericGrad(loss, d.B.W, i)
		if math.Abs(d.B.G[i]-want) > 1e-4 {
			t.Errorf("db[%d] = %g, numeric %g", i, d.B.G[i], want)
		}
	}
	// dx check via perturbing the input.
	for i := range x {
		old := x[i]
		x[i] = old + 1e-6
		up := loss()
		x[i] = old - 1e-6
		down := loss()
		x[i] = old
		want := (up - down) / 2e-6
		if math.Abs(dx[i]-want) > 1e-4 {
			t.Errorf("dx[%d] = %g, numeric %g", i, dx[i], want)
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP("t", 3, []int{5, 4}, rng)
	x := []float64{0.5, -0.2, 1.3}
	ls := NewScratch(m)
	loss := func() float64 {
		y := m.ApplyScratch(ls, x)
		s := 0.0
		for _, v := range y {
			s += 0.5 * v * v
		}
		return s
	}
	s := NewScratch(m)
	y := m.ApplyScratch(s, x)
	dy := append([]float64(nil), y...)
	for _, p := range m.Params() {
		clear(p.G)
	}
	dx := m.Backward(s, x, dy)
	for _, p := range m.Params() {
		for i := 0; i < p.Len(); i += 7 { // sample every 7th weight
			want := numericGrad(loss, p.W, i)
			if math.Abs(p.G[i]-want) > 1e-4 {
				t.Errorf("%s[%d] = %g, numeric %g", p.Name, i, p.G[i], want)
			}
		}
	}
	for i := range x {
		if want := numericGrad(loss, x, i); math.Abs(dx[i]-want) > 1e-4 {
			t.Errorf("dx[%d] = %g, numeric %g", i, dx[i], want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)^2 from w=0.
	p := NewParam("w", 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W[0]-3) > 0.01 {
		t.Fatalf("w = %g, want ~3", p.W[0])
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP("xor", 2, []int{8}, rng)
	out := NewDense("out", 8, 1, rng)
	params := append(m.Params(), out.Params()...)
	opt := NewAdam(0.05)
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	s := NewScratch(m)
	y, dh := make([]float64, 1), make([]float64, 8)
	var last float64
	for epoch := 0; epoch < 800; epoch++ {
		last = 0
		for _, d := range data {
			h := m.ApplyScratch(s, d[:2])
			diff := out.ApplyTo(y, h)[0] - d[2]
			last += 0.5 * diff * diff
			m.Backward(s, d[:2], out.Backward(dh, h, []float64{diff}))
		}
		opt.Step(params)
	}
	if last > 0.05 {
		t.Fatalf("XOR loss after training = %g, want < 0.05", last)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [5]int8) bool {
		logits := make([]float64, 5)
		for i, v := range raw {
			logits[i] = float64(v) / 16
		}
		p := SoftmaxTo(make([]float64, 5), logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// LogSoftmax consistency.
		lp := LogSoftmaxTo(make([]float64, 5), logits)
		for i := range p {
			if math.Abs(math.Exp(lp[i])-p[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	p := SoftmaxTo(make([]float64, 3), []float64{1000, 1001, 1002})
	sum := 0.0
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %g", sum)
	}
}

func TestSampleCategoricalRespectsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probs := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	n := 20000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-p) > 0.02 {
			t.Errorf("bucket %d frequency %g, want ~%g", i, got, p)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
}

func TestCategoricalEntropy(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if got, want := CategoricalEntropy(uniform), math.Log(4); math.Abs(got-want) > 1e-9 {
		t.Errorf("uniform entropy = %g, want %g", got, want)
	}
	peaked := []float64{1, 0, 0, 0}
	if got := CategoricalEntropy(peaked); got > 1e-9 {
		t.Errorf("deterministic entropy = %g, want 0", got)
	}
}

func TestGaussianLogProb(t *testing.T) {
	// At the mean with sigma=1, density is 1/sqrt(2 pi).
	got := GaussianLogProb(0, 0, 0)
	want := -0.5 * math.Log(2*math.Pi)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("logprob = %g, want %g", got, want)
	}
	// Further from the mean is less likely.
	if GaussianLogProb(2, 0, 0) >= GaussianLogProb(1, 0, 0) {
		t.Error("log prob not decreasing away from mean")
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("p", 2)
	p.G[0], p.G[1] = 3, 4 // norm 5
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("pre-clip norm = %g", norm)
	}
	if math.Abs(p.G[0]-0.6) > 1e-9 || math.Abs(p.G[1]-0.8) > 1e-9 {
		t.Fatalf("clipped grads = %v", p.G)
	}
}

func TestAdamClearsGradients(t *testing.T) {
	p := NewParam("p", 1)
	p.G[0] = 1
	NewAdam(0.01).Step([]*Param{p})
	if p.G[0] != 0 {
		t.Fatal("gradient not cleared after step")
	}
}
