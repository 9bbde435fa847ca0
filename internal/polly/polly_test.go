package polly

import (
	"testing"

	"neurovec/internal/costmodel"
	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/machine"
	"neurovec/internal/sim"
)

func irFor(t *testing.T, src string) *ir.Program {
	t.Helper()
	return lower.MustProgram(lang.MustParse(src))
}

const gemmSrc = `
float A[512][512];
float B[512][512];
float C[512][512];
void gemm(float alpha) {
    for (int i = 0; i < 512; i++) {
        for (int j = 0; j < 512; j++) {
            float sum = 0;
            for (int k = 0; k < 512; k++) {
                sum += alpha * A[i][k] * B[k][j];
            }
            C[i][j] = sum;
        }
    }
}
`

func TestTilingAppliesToGemm(t *testing.T) {
	p := irFor(t, gemmSrc)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Tiled) != 1 {
		t.Fatalf("tiled = %v, want the gemm nest", res.Tiled)
	}
	root := res.Program.Funcs[0].Loops[0]
	chain := nestChain(root)
	if len(chain) != 6 {
		t.Fatalf("tiled nest depth = %d, want 6 (3 block + 3 point)", len(chain))
	}
	// Point innermost keeps the original label so vectorization plans from
	// other agents still key correctly.
	inner := chain[len(chain)-1]
	if inner.Label != "L2" {
		t.Errorf("innermost label = %s, want L2", inner.Label)
	}
	if len(inner.Reductions) != 1 {
		t.Errorf("reduction lost in tiling")
	}
	// Block strides present on the B access.
	var bAcc *ir.Access
	for _, a := range inner.Accesses {
		if a.Array == "B" {
			bAcc = a
		}
	}
	if bAcc == nil {
		t.Fatal("B access missing after tiling")
	}
	if bAcc.StrideFor("L2b") == 0 || bAcc.StrideFor("L1b") == 0 {
		t.Errorf("B lacks block strides: %v", bAcc.Strides)
	}
}

// shippedIR lowers a shipped benchmark with its runtime parameter values,
// as the evaluation loads it.
func shippedIR(t *testing.T, suite []dataset.Benchmark, name string) *ir.Program {
	t.Helper()
	for _, b := range suite {
		if b.Name == name {
			p, err := lower.Program(lang.MustParse(b.Source), lower.Options{ParamValues: b.ParamValues})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("benchmark %s not shipped", name)
	return nil
}

// optimizeSpeedup runs Optimize and returns its result with the simulated
// speedup over the untransformed program, both under the baseline plans.
func optimizeSpeedup(p *ir.Program) (*Result, float64) {
	cfg := sim.DefaultConfig()
	before := sim.Program(p, costmodel.Plans(p, cfg.Arch), cfg)
	res := Optimize(p, cfg.Arch)
	after := sim.Program(res.Program, costmodel.Plans(res.Program, cfg.Arch), cfg)
	return res, before.Cycles / after.Cycles
}

// TestTilingImprovesLargeGemm checks that tiling alone carries the gemm
// win: the nest is tiled, nothing is fused, and the speedup is a plausible
// locality win.
func TestTilingImprovesLargeGemm(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *ir.Program
	}{
		{"gemm512", irFor(t, gemmSrc)},
		{"polybench/gemm", shippedIR(t, dataset.PolyBench(), "gemm")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, speedup := optimizeSpeedup(tc.prog)
			if len(res.Tiled) != 1 || len(res.Fused) != 0 {
				t.Errorf("tiled = %v, fused = %v, want the one nest tiled and nothing fused", res.Tiled, res.Fused)
			}
			if speedup <= 1.1 || speedup > 20 {
				t.Errorf("tiling speedup = %.2fx, want a plausible locality win in (1.1, 20]", speedup)
			}
			t.Logf("speedup=%.3fx", speedup)
		})
	}
}

func TestTilingSkipsSmallNests(t *testing.T) {
	p := irFor(t, `
float G[32][32];
void f(float x) {
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) {
            G[i][j] = x;
        }
    }
}
`)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Tiled) != 0 {
		t.Errorf("tiny nest tiled: %v", res.Tiled)
	}
}

func TestTilingSkipsNonAffine(t *testing.T) {
	p := irFor(t, `
int idx[512];
int M[512][512];
void f() {
    for (int i = 0; i < 512; i++) {
        for (int j = 0; j < 512; j++) {
            M[i][idx[j]] = 0;
        }
    }
}
`)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Tiled) != 0 {
		t.Errorf("non-affine nest tiled: %v", res.Tiled)
	}
}

func TestFusionMergesCompatibleLoops(t *testing.T) {
	p := irFor(t, `
int a[1024];
int b[1024];
int c[1024];
void f() {
    for (int i = 0; i < 1024; i++) {
        a[i] = b[i] + 1;
    }
    for (int i = 0; i < 1024; i++) {
        c[i] = b[i] * 2;
    }
}
`)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Fused) != 1 {
		t.Fatalf("fused = %v, want one pair", res.Fused)
	}
	if got := len(res.Program.Funcs[0].Loops); got != 1 {
		t.Fatalf("loops after fusion = %d, want 1", got)
	}
	merged := res.Program.Funcs[0].Loops[0]
	loads := merged.LoadCount()
	if stores := len(merged.Accesses) - loads; loads != 2 || stores != 2 {
		t.Errorf("merged loads/stores = %d/%d, want 2/2", loads, stores)
	}
}

// TestFusionImprovesPerformance checks that fusion alone carries the win on
// bandwidth-bound pairs: one pair is fused, nothing is tiled (the loops are
// 1-D), and the merged load stream pays.
func TestFusionImprovesPerformance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prog    *ir.Program
		minGain float64
	}{
		{"double8192", irFor(t, `
double a[8192];
double b[8192];
double c[8192];
void f() {
    for (int i = 0; i < 8192; i++) {
        a[i] = b[i] + 1.0;
    }
    for (int i = 0; i < 8192; i++) {
        c[i] = b[i] * 2.0;
    }
}
`), 1},
		{"figure7/bench10_fusible", shippedIR(t, dataset.EvalBenchmarks(), "bench10_fusible"), 1.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, speedup := optimizeSpeedup(tc.prog)
			if len(res.Fused) != 1 || len(res.Tiled) != 0 {
				t.Errorf("fused = %v, tiled = %v, want one pair fused and nothing tiled", res.Fused, res.Tiled)
			}
			if speedup <= tc.minGain {
				t.Errorf("fusion speedup = %.3fx, want > %.2fx", speedup, tc.minGain)
			}
			t.Logf("speedup=%.3fx", speedup)
		})
	}
}

func TestFusionRejectsConflictingAccesses(t *testing.T) {
	// Second loop reads a shifted (so iteration k of the fused loop would
	// read an element the first loop has not written yet).
	p := irFor(t, `
int a[1024];
int b[1024];
void f() {
    for (int i = 0; i < 1000; i++) {
        a[i] = b[i];
    }
    for (int i = 0; i < 1000; i++) {
        b[i] = a[i + 8];
    }
}
`)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Fused) != 0 {
		t.Errorf("illegal fusion performed: %v", res.Fused)
	}
}

func TestFusionRejectsDifferentTripCounts(t *testing.T) {
	p := irFor(t, `
int a[1024];
int b[1024];
void f() {
    for (int i = 0; i < 512; i++) {
        a[i] = i;
    }
    for (int i = 0; i < 1024; i++) {
        b[i] = i;
    }
}
`)
	res := Optimize(p, machine.IntelAVX2())
	if len(res.Fused) != 0 {
		t.Errorf("fused loops with different trips: %v", res.Fused)
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	p := irFor(t, gemmSrc)
	depthBefore := len(nestChain(p.Funcs[0].Loops[0]))
	bStrides := len(p.InnermostLoops()[0].Accesses)
	_ = Optimize(p, machine.IntelAVX2())
	if got := len(nestChain(p.Funcs[0].Loops[0])); got != depthBefore {
		t.Errorf("input nest depth changed: %d -> %d", depthBefore, got)
	}
	if got := len(p.InnermostLoops()[0].Accesses); got != bStrides {
		t.Errorf("input accesses changed")
	}
}
