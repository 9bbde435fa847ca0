package code2vec

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// cpuTiers lists the kernel tiers this CPU can run, widest first: AVX-512
// and AVX where the CPU has them, then pure Go.
func cpuTiers() []kernelTier {
	var tiers []kernelTier
	if hasAVX512() {
		tiers = append(tiers, kernelTier{"AVX-512", accumAVX512, axpyAVX512})
	}
	if hasAVX() {
		tiers = append(tiers, kernelTier{"AVX", accumAVX, axpyAVX})
	}
	return append(tiers, goTier)
}

// TestKernelTier logs which accum, axpy and tanhInPlace kernels init
// installed, so a test log shows which tier this machine exercised, and
// requires them to be the widest tier the CPU has.
func TestKernelTier(t *testing.T) {
	name := func(f any) string {
		return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	}
	t.Logf("AVX %v, AVX-512F %v: accum %s, axpy %s, tanhInPlace %s",
		hasAVX(), hasAVX512(), name(accum), name(axpy), name(tanhInPlace))
	widest := cpuTiers()[0]
	if name(accum) != name(widest.accum) || name(axpy) != name(widest.axpy) {
		t.Fatalf("installed accum %s and axpy %s, want the %s tier's %s and %s",
			name(accum), name(axpy), widest.name, name(widest.accum), name(widest.axpy))
	}
}

// checkAccumMatchesScalar pins the vector accum kernel fn to startRows and
// the pure-Go accum2 and accum1, bit for bit, on edgeFloat inputs over 0 to
// maxRows rows, output counts below, at and around the eight-output block
// and the production 340, EmbedDim 1, 5 and 32, and every column window of
// W. Each window runs with every row continuing its own sums (a nil from)
// and with random parent rows.
func checkAccumMatchesScalar(t *testing.T, fn func(acc []float64, from []int, table []float64, rows []uint32, d int, w []float64, stride, k0 int, lanes []float64), maxRows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, out := range []int{1, 7, 8, 9, 13, 340} {
		for _, d := range []int{1, 5, 32} {
			for n := 0; n <= maxRows; n++ {
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
				parents := make([]int, n)
				for i := range parents {
					parents[i] = rng.Intn(i + 1)
				}
				for _, from := range [][]int{nil, parents} {
					for k0 := 0; k0 < 3*d; k0 += d {
						want := append([]float64(nil), acc...)
						startRows(want, from, out)
						i := 0
						for ; i+2 <= n; i += 2 {
							accum2(want[i*out:(i+1)*out], want[(i+1)*out:(i+2)*out],
								table[int(rows[i])*d:][:d], table[int(rows[i+1])*d:][:d], w, 3*d, k0)
						}
						if i < n {
							accum1(want[i*out:(i+1)*out], table[int(rows[i])*d:][:d], w, 3*d, k0)
						}
						got := append([]float64(nil), acc...)
						fn(got, from, table, rows, d, w, 3*d, k0, make([]float64, 8*d))
						for j := range want {
							if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
								t.Fatalf("out=%d d=%d rows=%d k0=%d parents=%v: acc[%d] = %v (%#x), accum2 %v (%#x)",
									out, d, n, k0, from, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestAccumAVXMatchesScalar pins the AVX kernel accumAVX to the pure-Go
// accum2 and accum1, bit for bit, over row counts that fill blocks of four
// with every tail, and requires accum to run the widest tier the CPU has.
func TestAccumAVXMatchesScalar(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU lacks AVX: accum runs the pure-Go kernel")
	}
	if widest := cpuTiers()[0]; reflect.ValueOf(accum).Pointer() != reflect.ValueOf(widest.accum).Pointer() {
		t.Fatalf("accum does not run the %s kernel, the widest this CPU has", widest.name)
	}
	checkAccumMatchesScalar(t, accumAVX, 9)
}

// TestAccumAVX512MatchesScalar pins the AVX-512 kernel accumAVX512 to the
// pure-Go accum2 and accum1, bit for bit, over row counts 0 to 17, which
// fill blocks of eight with every tail, and output counts whose % 8 tails
// run in the kernel's four-output and one-output paths.
func TestAccumAVX512MatchesScalar(t *testing.T) {
	if !hasAVX512() {
		t.Skip("CPU lacks AVX-512F: accum runs a narrower kernel")
	}
	checkAccumMatchesScalar(t, accumAVX512, 17)
}

// tanhInputs are the values where math.tanh changes branch or is special:
// ±0, subnormals, both sides of ±0.625 (the rational branch's bound) and
// of ±22, values near and past the saturation bound of about 44.01, ±Inf
// and NaN.
func tanhInputs() []float64 {
	var xs []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 0x1p-1022,
		math.Nextafter(0.625, 0), 0.625, math.Nextafter(0.625, 1),
		0.3, 1, 21.9, 22, math.Nextafter(22, 23), 30, 44.0148, 44.1, 1e300, math.MaxFloat64,
		math.Inf(1),
	} {
		xs = append(xs, v, -v)
	}
	return append(xs, math.NaN())
}

// smallTanhInput draws from edgeFloat until the draw is nonzero with
// |x| < 0.625, where math.tanh takes its rational branch.
func smallTanhInput(rng *rand.Rand) float64 {
	for {
		if v := edgeFloat(rng); v != 0 && math.Abs(v) < 0.625 {
			return v
		}
	}
}

// TestTanhKernelMatchesMathTanh pins the AVX tanh that tanhInPlace runs on
// amd64 CPUs with AVX to math.Tanh, bit for bit: on the special and branch
// boundary values of tanhInputs, on random edgeFloat values, over lengths 0
// to 9 and 340, in blocks of four that hold only rational-branch values
// and in blocks that mix branches. It also requires tanhBlocks itself to
// take every whole block of rational-branch values and to stop, unchanged,
// at the first block it refuses, so a kernel that always fell back to
// math.Tanh would fail.
func TestTanhKernelMatchesMathTanh(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU lacks AVX: tanhInPlace runs the pure-Go loop")
	}
	if reflect.ValueOf(tanhInPlace).Pointer() != reflect.ValueOf(tanhAVX).Pointer() {
		t.Fatal("tanhInPlace does not run the AVX kernel on a CPU with AVX")
	}
	check := func(name string, x []float64) {
		t.Helper()
		got := append([]float64(nil), x...)
		tanhAVX(got)
		for i, v := range x {
			if want := math.Tanh(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s (len %d): tanh(%v)[%d] = %v (%#x), math.Tanh %v (%#x)",
					name, len(x), v, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	special := tanhInputs()
	for _, v := range special {
		check("special", []float64{v})
		// v in each lane of a block whose other lanes are rational-branch values.
		for lane := 0; lane < 4; lane++ {
			x := []float64{0.1, -0.2, 0x1p-30, -0.5}
			x[lane] = v
			check("mixed block", x)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 340} {
		for trial := 0; trial < 20; trial++ {
			small := make([]float64, n)
			mixed := make([]float64, n)
			for i := range small {
				small[i] = smallTanhInput(rng)
				switch rng.Intn(4) {
				case 0:
					mixed[i] = special[rng.Intn(len(special))]
				case 1:
					mixed[i] = edgeFloat(rng)
				default:
					mixed[i] = smallTanhInput(rng)
				}
			}
			check("rational branch", small)
			check("mixed", mixed)

			got := append([]float64(nil), small...)
			if k := tanhBlocks(got); k != n&^3 {
				t.Fatalf("tanhBlocks took %d of %d rational-branch values, want %d", k, n, n&^3)
			}
			for i := n &^ 3; i < n; i++ {
				if math.Float64bits(got[i]) != math.Float64bits(small[i]) {
					t.Fatalf("tanhBlocks changed tail element %d of %d", i, n)
				}
			}
			edgeRow := make([]float64, n)
			for i := range edgeRow {
				edgeRow[i] = edgeFloat(rng)
			}
			check("edgeFloat", edgeRow)
		}
	}

	// A refused block stops the sweep: the blocks before it are replaced,
	// it and every block after it are left as they were.
	for _, v := range special {
		if v != 0 && math.Abs(v) < 0.625 {
			continue
		}
		x := make([]float64, 12)
		for i := range x {
			x[i] = smallTanhInput(rng)
		}
		x[5] = v
		got := append([]float64(nil), x...)
		if k := tanhBlocks(got); k != 4 {
			t.Fatalf("tanhBlocks with %v in the second block took %d values, want 4", v, k)
		}
		for i := 4; i < len(x); i++ {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("tanhBlocks with %v in the second block changed element %d", v, i)
			}
		}
	}
}

// TestAxpyMatchesScalar pins the axpy of every vector tier the CPU has
// (AVX-512 and AVX) to axpyGo, bit for bit, on edgeFloat inputs over lengths
// 0 to 17, 96 (Backward's 3·EmbedDim) and 340 (OutDim), requires each to
// leave the rest of a longer y alone, and requires axpy to run the widest
// tier.
func TestAxpyMatchesScalar(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU lacks AVX: axpy runs the pure-Go loop")
	}
	tiers := cpuTiers()
	if reflect.ValueOf(axpy).Pointer() != reflect.ValueOf(tiers[0].axpy).Pointer() {
		t.Fatalf("axpy does not run the %s kernel, the widest this CPU has", tiers[0].name)
	}
	for _, k := range tiers[:len(tiers)-1] {
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 96, 340} {
			for trial := 0; trial < 20; trial++ {
				a := edgeFloat(rng)
				x := make([]float64, n)
				y := make([]float64, n+3)
				for i := range x {
					x[i] = edgeFloat(rng)
				}
				for i := range y {
					y[i] = edgeFloat(rng)
				}
				want := append([]float64(nil), y...)
				axpyGo(a, x, want)
				got := append([]float64(nil), y...)
				k.axpy(a, x, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d a=%v: y[%d] = %v (%#x), scalar %v (%#x)",
							k.name, n, a, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
