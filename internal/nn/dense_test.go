package nn

import (
	"math"
	"math/rand"
	"testing"
)

// edgeFloat draws normal values over a wide exponent range, subnormals and
// signed zeros, so that products underflow and sums cancel to ±0. It never
// draws infinities or NaNs, and its products cannot overflow.
func edgeFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(2))<<63)
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Ldexp(rng.NormFloat64(), -rng.Intn(540))
	default:
		return rng.NormFloat64()
	}
}

// scalarDense is the plain reference for a dense layer: each output is
// B[o] plus W[o][i]·x[i] summed in i order, one output at a time.
func scalarDense(d *Dense, x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := range y {
		s := d.B.W[o]
		for i, xv := range x {
			s += d.W.W[o*d.In+i] * xv
		}
		y[o] = s
	}
	return y
}

// scalarMLP is the plain reference for an MLP: scalarDense then tanh, layer
// by layer.
func scalarMLP(m *MLP, x []float64) []float64 {
	for _, d := range m.Layers {
		x = scalarDense(d, x)
		for i, v := range x {
			x[i] = math.Tanh(v)
		}
	}
	return x
}

// TestDenseApplyToMatchesScalar pins the register-blocked Dense.ApplyTo to
// the plain loop that sums one output at a time, B[o] then W[o][i]·x[i] in
// i order, bit for bit: output counts below, at and around the four-output
// block, and input widths from one up to the code-vector width.
func TestDenseApplyToMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, out := range []int{1, 3, 4, 5, 64} {
		for _, in := range []int{1, 7, 340} {
			d := NewDense("t", in, out, rng)
			x := make([]float64, in)
			for trial := 0; trial < 4; trial++ {
				for _, buf := range [][]float64{d.W.W, d.B.W, x} {
					for i := range buf {
						buf[i] = edgeFloat(rng)
					}
				}
				got := d.ApplyTo(make([]float64, out), x)
				want := scalarDense(d, x)
				for o := 0; o < out; o++ {
					if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
						t.Fatalf("out=%d in=%d: y[%d] = %v (%#x), scalar %v (%#x)",
							out, in, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
					}
				}
			}
		}
	}
}

// BenchmarkDenseApplyTo times the RL trunk's two dense layers (340→64 and
// 64→64, the paper's 64x64 FCNN over the code vector) on one input.
func BenchmarkDenseApplyTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fc0 := NewDense("trunk.fc0", 340, 64, rng)
	fc1 := NewDense("trunk.fc1", 64, 64, rng)
	x := randVec(340, rng)
	h0 := make([]float64, 64)
	h1 := make([]float64, 64)
	b.ReportAllocs()
	for b.Loop() {
		fc1.ApplyTo(h1, fc0.ApplyTo(h0, x))
	}
}
