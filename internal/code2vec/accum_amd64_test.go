package code2vec

import (
	"math"
	"math/rand"
	"reflect"
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

// TestAccumAVXMatchesScalar pins the AVX kernel that accum runs on amd64
// CPUs with AVX to the pure-Go accum2 and accum1, bit for bit, over row
// counts that fill blocks of four with every tail, output counts below, at
// and around the eight-output block, and every column window of W.
func TestAccumAVXMatchesScalar(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU lacks AVX: accum runs the pure-Go kernel")
	}
	if reflect.ValueOf(accum).Pointer() != reflect.ValueOf(accumAVX).Pointer() {
		t.Fatal("accum does not run the AVX kernel on a CPU with AVX")
	}
	rng := rand.New(rand.NewSource(1))
	for _, out := range []int{1, 7, 8, 9, 13, 340} {
		for _, d := range []int{1, 5, 32} {
			for n := 0; n <= 9; n++ {
				table := make([]float64, 8*d)
				w := make([]float64, out*3*d)
				acc := make([]float64, n*out)
				for _, buf := range [][]float64{table, w, acc} {
					for i := range buf {
						buf[i] = edgeFloat(rng)
					}
				}
				rows := make([]uint32, n)
				for i := range rows {
					rows[i] = uint32(rng.Intn(8))
				}
				for k0 := 0; k0 < 3*d; k0 += d {
					want := append([]float64(nil), acc...)
					i := 0
					for ; i+2 <= n; i += 2 {
						accum2(want[i*out:(i+1)*out], want[(i+1)*out:(i+2)*out],
							table[int(rows[i])*d:][:d], table[int(rows[i+1])*d:][:d], w, 3*d, k0)
					}
					if i < n {
						accum1(want[i*out:(i+1)*out], table[int(rows[i])*d:][:d], w, 3*d, k0)
					}
					got := append([]float64(nil), acc...)
					accumAVX(got, table, rows, d, w, 3*d, k0, make([]float64, 4*d))
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("out=%d d=%d rows=%d k0=%d: acc[%d] = %v (%#x), accum2 %v (%#x)",
								out, d, n, k0, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}
