package costmodel_test

import (
	"sort"
	"testing"

	"neurovec/internal/costmodel"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/machine"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// spearman computes the Spearman rank-correlation coefficient between two
// equal-length series (average ranks for ties).
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var meanA, meanB float64
	for i := range ra {
		meanA += ra[i]
		meanB += rb[i]
	}
	meanA /= n
	meanB /= n
	var cov, varA, varB float64
	for i := range ra {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / (sqrt(varA) * sqrt(varB))
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestCostModelRanksConfigsLikeSimulator checks the structural sanity
// contract between the linear cost model and the cycle simulator: across
// the VF ladder of a loop, the model's cost curve should *rank* the
// configurations broadly like the simulator's measured cycles. Exact
// equality is explicitly a non-goal — the model is blind to caches,
// reduction chains, and loop overhead by design (that gap is the paper's
// headroom) — but an anti-correlated model would mean the baseline is
// deciding from noise, so each kernel carries a minimum rank correlation.
func TestCostModelRanksConfigsLikeSimulator(t *testing.T) {
	arch := machine.IntelAVX2()
	simCfg := sim.Config{Arch: arch, WarmCaches: true}

	cases := []struct {
		name string
		src  string
		// minRho is the weakest acceptable Spearman correlation between
		// model cost and simulated cycles over the VF ladder.
		minRho float64
	}{
		{
			name: "stream_add_float",
			src: `
float a[4096];
float b[4096];
float c[4096];
void kernel() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] + c[i];
    }
}
`,
			minRho: 0.6,
		},
		{
			name: "saxpy_int",
			src: `
int xs[2048];
int ys[2048];
void kernel() {
    for (int i = 0; i < 2048; i++) {
        ys[i] = 3 * xs[i] + ys[i];
    }
}
`,
			minRho: 0.6,
		},
		{
			name: "narrow_short",
			src: `
short u[8192];
short v[8192];
void kernel() {
    for (int i = 0; i < 8192; i++) {
        u[i] = u[i] + v[i];
    }
}
`,
			minRho: 0.6,
		},
		{
			name: "reduction_dot",
			src: `
float p[4096];
float q[4096];
float s;
void kernel() {
    float acc = 0;
    for (int i = 0; i < 4096; i++) {
        acc += p[i] * q[i];
    }
    s = acc;
}
`,
			// The model cannot see the reduction latency chain the
			// simulator charges for, so the bar is lower.
			minRho: 0.3,
		},
		{
			name: "strided_gather",
			src: `
float pix[16384];
float lum[4096];
void kernel() {
    for (int i = 0; i < 4096; i++) {
        lum[i] = pix[4 * i];
    }
}
`,
			// Both sides agree strided access hurts; how much differs.
			minRho: 0.3,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := lang.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			irp, err := lower.Program(prog, lower.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			loops := irp.InnermostLoops()
			if len(loops) == 0 {
				t.Fatal("no loops")
			}
			loop := loops[0]

			var preds, meas []float64
			var vfs []int
			for _, vf := range arch.VFs() {
				plan := vectorizer.New(loop, arch, vf, 1)
				if plan.VF != vf {
					continue // clamped: the measurement would be for a different config
				}
				preds = append(preds, costmodel.Estimate(loop, vf, arch))
				meas = append(meas, sim.Explain(loop, plan, simCfg).Total)
				vfs = append(vfs, vf)
			}
			if len(preds) < 4 {
				t.Fatalf("only %d unclamped VF configs (%v); kernel unsuitable", len(preds), vfs)
			}
			rho := spearman(preds, meas)
			t.Logf("VFs %v: model %v, sim %v, spearman %.3f", vfs, preds, meas, rho)
			if rho < tc.minRho {
				t.Errorf("rank correlation %.3f below floor %.3f: the baseline model ranks configs unlike the simulator", rho, tc.minRho)
			}
		})
	}
}
