package sim

import (
	"testing"

	"neurovec/internal/costmodel"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/vectorizer"
)

const dotSrc = `
int vec[512];
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}
`

func irFor(t *testing.T, src string) *ir.Program {
	t.Helper()
	return lower.MustProgram(lang.MustParse(src))
}

func loopCycles(t *testing.T, src string, vf, ifc int) float64 {
	t.Helper()
	cfg := DefaultConfig()
	p := irFor(t, src)
	l := p.InnermostLoops()[0]
	plan := vectorizer.New(l, cfg.Arch, vf, ifc)
	return Explain(l, plan, cfg).Total
}

// TestDotProductGridShape is the calibration test for the paper's Figure 1:
// on the dot-product kernel the baseline model picks (VF=4, IF=2); a
// majority of the 35 (VF, IF) points must beat the baseline's pick, and the
// best point must improve on it modestly (paper: up to ~20%); the baseline
// pick itself must beat scalar by a solid factor (paper: 2.6x).
func TestDotProductGridShape(t *testing.T) {
	cfg := DefaultConfig()
	p := irFor(t, dotSrc)
	l := p.InnermostLoops()[0]

	choice := costmodel.Choose(l, cfg.Arch)
	if choice.VF != 4 || choice.IF != 2 {
		t.Fatalf("baseline choice = (%d,%d), want (4,2) like LLVM on int dot product", choice.VF, choice.IF)
	}
	baseline := Explain(l, vectorizer.New(l, cfg.Arch, choice.VF, choice.IF), cfg).Total
	scalar := Explain(l, vectorizer.ScalarPlan(l), cfg).Total

	if ratio := scalar / baseline; ratio < 1.5 || ratio > 6 {
		t.Errorf("baseline speedup over scalar = %.2fx, want within [1.5, 6] (paper: 2.6x)", ratio)
	}

	better, total := 0, 0
	bestSpeed := 0.0
	bestVF, bestIF := 0, 0
	for _, vf := range cfg.Arch.VFs() {
		for _, ifc := range cfg.Arch.IFs() {
			total++
			c := Explain(l, vectorizer.New(l, cfg.Arch, vf, ifc), cfg).Total
			sp := baseline / c
			if sp > 1.0 {
				better++
			}
			if sp > bestSpeed {
				bestSpeed, bestVF, bestIF = sp, vf, ifc
			}
		}
	}
	if total != 35 {
		t.Fatalf("grid size = %d, want 35 (7 VFs x 5 IFs)", total)
	}
	// Paper: 26 of 35 factors improve over the baseline.
	if better < 14 || better > 34 {
		t.Errorf("points beating baseline = %d/35, want a clear majority like the paper's 26", better)
	}
	if bestSpeed < 1.05 || bestSpeed > 3.0 {
		t.Errorf("best speedup over baseline = %.2fx at (%d,%d), want modest improvement in [1.05, 3.0]", bestSpeed, bestVF, bestIF)
	}
	if bestVF <= choice.VF {
		t.Errorf("best VF = %d not wider than baseline's %d; the conservative-width story is broken", bestVF, choice.VF)
	}
	t.Logf("scalar=%.0f baseline(4,2)=%.0f best(%d,%d)=%.0f better=%d/35 bestSpeedup=%.2fx",
		scalar, baseline, bestVF, bestIF, baseline/bestSpeed, better, bestSpeed)
}

func TestVectorizationMonotoneOnSimpleCopy(t *testing.T) {
	src := `
int a[4096];
int b[4096];
void f() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] + 1;
    }
}
`
	s1 := loopCycles(t, src, 1, 1)
	s8 := loopCycles(t, src, 8, 1)
	if s8 >= s1 {
		t.Errorf("VF=8 (%.0f) not faster than scalar (%.0f)", s8, s1)
	}
}

func TestStridedAccessReducesBenefit(t *testing.T) {
	unit := `
int a[4096];
int b[4096];
void f() {
    for (int i = 0; i < 1024; i++) {
        a[i] = b[i] * 3;
    }
}
`
	strided := `
int a[4096];
int b[8192];
void f() {
    for (int i = 0; i < 1024; i++) {
        a[i] = b[8 * i] * 3;
    }
}
`
	unitGain := loopCycles(t, unit, 1, 1) / loopCycles(t, unit, 8, 1)
	stridedGain := loopCycles(t, strided, 1, 1) / loopCycles(t, strided, 8, 1)
	if stridedGain >= unitGain {
		t.Errorf("strided gain %.2fx should be below unit-stride gain %.2fx", stridedGain, unitGain)
	}
}

func TestRemainderLoopCost(t *testing.T) {
	// Trip 100 with VF=64 leaves a 36-iteration scalar remainder; VF=4
	// leaves none. The high-VF version must pay for it.
	src := `
int a[128];
int b[128];
void f() {
    for (int i = 0; i < 100; i++) {
        a[i] = b[i] + 1;
    }
}
`
	v4 := loopCycles(t, src, 4, 1)
	v64 := loopCycles(t, src, 64, 1)
	if v64 <= v4*0.8 {
		t.Errorf("VF=64 on trip 100 (%.0f) suspiciously cheap vs VF=4 (%.0f); remainder not charged?", v64, v4)
	}
}

func TestInterleaveHidesReductionLatency(t *testing.T) {
	src := `
float x[4096];
float y[4096];
float f() {
    float acc = 0;
    for (int i = 0; i < 4096; i++) {
        acc += x[i] * y[i];
    }
    return acc;
}
`
	if1 := loopCycles(t, src, 8, 1)
	if4 := loopCycles(t, src, 8, 4)
	if if4 >= if1 {
		t.Errorf("IF=4 (%.0f) should beat IF=1 (%.0f) on a float reduction (latency hiding)", if4, if1)
	}
}

func TestRegisterPressurePenalizesExtremeFactors(t *testing.T) {
	// A many-stream loop at VF=64, IF=16 wildly overcommits the register
	// file; it must not be the best point.
	src := `
double a[8192];
double b[8192];
double c[8192];
double d[8192];
double e[8192];
void f() {
    for (int i = 0; i < 8192; i++) {
        a[i] = b[i] * c[i] + d[i] * e[i] + b[i] * d[i];
    }
}
`
	cfg := DefaultConfig()
	p := irFor(t, src)
	l := p.InnermostLoops()[0]
	extreme := Explain(l, vectorizer.New(l, cfg.Arch, 64, 16), cfg).Total
	moderate := Explain(l, vectorizer.New(l, cfg.Arch, 8, 2), cfg).Total
	if extreme <= moderate {
		t.Errorf("extreme factors (%.0f) beat moderate (%.0f); spill model missing", extreme, moderate)
	}
}

func TestPredicatedLoopVectorizationWins(t *testing.T) {
	// Scalar code pays branch mispredictions; the vector form is
	// if-converted. Vectorization should pay off more than proportionally.
	src := `
int a[4096];
int b[4096];
void f() {
    for (int i = 0; i < 4096; i++) {
        if (a[i] > 100) {
            b[i] = a[i];
        }
    }
}
`
	s := loopCycles(t, src, 1, 1)
	v := loopCycles(t, src, 8, 1)
	if v >= s {
		t.Errorf("vectorized predicated loop (%.0f) not faster than scalar (%.0f)", v, s)
	}
}

func TestLegalityClampKeepsCorrectness(t *testing.T) {
	src := `
int a[4096];
void f() {
    for (int i = 1; i < 4096; i++) {
        a[i] = a[i - 1] + 1;
    }
}
`
	cfg := DefaultConfig()
	l := irFor(t, src).InnermostLoops()[0]
	plan := vectorizer.New(l, cfg.Arch, 64, 8)
	if plan.VF != 1 {
		t.Fatalf("plan VF = %d for a serial recurrence, want 1", plan.VF)
	}
	if !plan.Clamped {
		t.Error("plan not marked clamped")
	}
}

func TestDRAMBoundLoopGainsLess(t *testing.T) {
	// 32 MB working set streams from DRAM; bandwidth caps the benefit.
	big := `
double a[2097152];
double b[2097152];
void f() {
    for (int i = 0; i < 2097152; i++) {
        a[i] = b[i] + 1.0;
    }
}
`
	small := `
double a[1024];
double b[1024];
void f() {
    for (int i = 0; i < 1024; i++) {
        a[i] = b[i] + 1.0;
    }
}
`
	bigGain := loopCycles(t, big, 1, 1) / loopCycles(t, big, 8, 2)
	smallGain := loopCycles(t, small, 1, 1) / loopCycles(t, small, 8, 2)
	if bigGain >= smallGain {
		t.Errorf("DRAM-bound gain %.2fx should be below L1-resident gain %.2fx", bigGain, smallGain)
	}
}

func TestCompileTimeGrowsWithFactors(t *testing.T) {
	cfg := DefaultConfig()
	p := irFor(t, `
int a[4096];
int b[4096];
int c[4096];
int d[4096];
void f() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] * c[i] + d[i] * b[i] + c[i] * d[i] + b[i] + c[i] + d[i];
    }
}
`)
	l := p.InnermostLoops()[0]
	base := CompileTime(p, map[string]*vectorizer.Plan{
		l.Label: vectorizer.New(l, cfg.Arch, 4, 1),
	}, cfg.Arch)
	huge := CompileTime(p, map[string]*vectorizer.Plan{
		l.Label: vectorizer.New(l, cfg.Arch, 64, 16),
	}, cfg.Arch)
	if huge <= base {
		t.Fatalf("compile time at (64,16) = %.0f not above (4,1) = %.0f", huge, base)
	}
	if huge/base < 10 {
		t.Errorf("compile blow-up ratio = %.1fx, want >= 10x so the timeout/penalty path triggers", huge/base)
	}
}

func TestProgramSimulationAggregates(t *testing.T) {
	cfg := DefaultConfig()
	p := irFor(t, `
int a[256];
int b[256];
void f() {
    for (int i = 0; i < 256; i++) {
        a[i] = b[i];
    }
    for (int i = 0; i < 256; i++) {
        b[i] = a[i] * 2;
    }
}
`)
	r := Program(p, nil, cfg)
	if r.Cycles <= 0 || r.Seconds <= 0 {
		t.Fatalf("result = %+v", r)
	}
	// Vectorizing both loops must reduce program time.
	plans := map[string]*vectorizer.Plan{}
	for _, l := range p.InnermostLoops() {
		plans[l.Label] = vectorizer.New(l, cfg.Arch, 8, 1)
	}
	r2 := Program(p, plans, cfg)
	if r2.Cycles >= r.Cycles {
		t.Errorf("vectorized program (%.0f) not faster than scalar (%.0f)", r2.Cycles, r.Cycles)
	}
}

func TestNestedLoopSimulation(t *testing.T) {
	cfg := DefaultConfig()
	p := irFor(t, `
float G[128][128];
void f(float x) {
    for (int i = 0; i < 128; i++) {
        for (int j = 0; j < 128; j++) {
            G[i][j] = x;
        }
    }
}
`)
	pp := Prepare(p, cfg)
	scalar := pp.Cycles(nil)
	inner := p.InnermostLoops()[0]
	plans := map[string]*vectorizer.Plan{inner.Label: vectorizer.New(inner, cfg.Arch, 8, 1)}
	vec := pp.Cycles(plans)
	if vec >= scalar {
		t.Errorf("vectorized nest (%.0f) not faster than scalar (%.0f)", vec, scalar)
	}
	// Total must scale with the outer trip count.
	if scalar < 128*128*0.3 {
		t.Errorf("scalar nest cycles = %.0f implausibly low for 16k iterations", scalar)
	}
}

func TestUnknownTripStillVectorizes(t *testing.T) {
	src := `
int a[65536];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] + 1;
    }
}
`
	s := loopCycles(t, src, 1, 1)
	v := loopCycles(t, src, 8, 2)
	if v >= s {
		t.Errorf("runtime-bound loop: vector (%.0f) not faster than scalar (%.0f)", v, s)
	}
}

func TestColdCachesCostMore(t *testing.T) {
	// With WarmCaches off (single-shot execution instead of the paper's
	// million-run averaging harness), every stream is a first touch and the
	// same loop costs more.
	src := `
double a[4096];
double b[4096];
void f() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] + 1.0;
    }
}
`
	p := irFor(t, src)
	l := p.InnermostLoops()[0]
	warm := DefaultConfig()
	cold := DefaultConfig()
	cold.WarmCaches = false
	plan := vectorizer.New(l, warm.Arch, 8, 2)
	cw := Explain(l, plan, warm).Total
	cc := Explain(l, plan, cold).Total
	if cc <= cw {
		t.Errorf("cold run (%.0f) not more expensive than warm run (%.0f)", cc, cw)
	}
}

func TestZeroTripLoop(t *testing.T) {
	src := `
int a[8];
void f() {
    for (int i = 0; i < 0; i++) {
        a[i] = i;
    }
}
`
	cfg := DefaultConfig()
	l := irFor(t, src).InnermostLoops()[0]
	c := Explain(l, vectorizer.New(l, cfg.Arch, 8, 2), cfg).Total
	if c <= 0 || c > 10 {
		t.Errorf("zero-trip loop cycles = %.1f, want small positive constant", c)
	}
}

func TestDeterminism(t *testing.T) {
	for i := 0; i < 3; i++ {
		a := loopCycles(t, dotSrc, 16, 4)
		b := loopCycles(t, dotSrc, 16, 4)
		if a != b {
			t.Fatalf("simulation not deterministic: %v != %v", a, b)
		}
	}
}

// TestDedupAccesses pins which accesses the footprint and issue models merge:
// only a repeated affine load of one address expression (same array, offset
// and strides) is dropped, and the first occurrence keeps its place.
func TestDedupAccesses(t *testing.T) {
	load := func(arr string, off int64, strides map[string]int64) *ir.Access {
		return &ir.Access{Kind: ir.Load, Array: arr, Offset: off, Strides: strides, Affine: true}
	}
	a := load("v", 0, map[string]int64{"L0": 1})
	store := &ir.Access{Kind: ir.Store, Array: "v", Strides: map[string]int64{"L0": 1}, Affine: true}
	gather := &ir.Access{Kind: ir.Load, Array: "v", Strides: map[string]int64{"L0": 1}}
	in := []*ir.Access{
		a,
		load("v", 0, map[string]int64{"L0": 1}), // same expression: dropped
		load("v", 1, map[string]int64{"L0": 1}), // other offset
		load("v", 0, map[string]int64{"L0": 2}), // other stride
		load("v", 0, map[string]int64{"L0": 1, "L1": 0}), // other loop set
		load("w", 0, map[string]int64{"L0": 1}),          // other array
		store, store,                                     // stores are never merged
		gather, gather, // nor non-affine loads
		load("v", 0, map[string]int64{"L0": 1}), // dropped again
	}
	got := dedupAccesses(nil, in)
	want := []*ir.Access{in[0], in[2], in[3], in[4], in[5], store, store, gather, gather}
	if len(got) != len(want) {
		t.Fatalf("kept %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, *got[i], *want[i])
		}
	}
}
