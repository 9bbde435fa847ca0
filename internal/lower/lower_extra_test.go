package lower

import (
	"testing"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
)

func TestConstFoldingOperators(t *testing.T) {
	cases := []struct {
		expr string
		trip int64
	}{
		{"16 % 5", 1},    // 1 iteration to bound 1
		{"1 << 5", 32},   // 32
		{"256 >> 2", 64}, // 64
		// Bitwise operators bind looser than < in C, so parenthesize.
		{"(96 & 127)", 96},
		{"(64 | 32)", 96},
		{"(100 ^ 4)", 96},
		{"~(-65)", 64},        // bitwise not: ~(-65) = 64
		{"-(-48)", 48},        // double negation
		{"(int) 24.0", 0},     // float cast is not constant-folded -> runtime
		{"(int) (3 * 8)", 24}, // integer cast folds
	}
	for _, c := range cases {
		src := "void f() { for (int i = 0; i < " + c.expr + "; i++) { } }"
		p := lowerSrc(t, src)
		l := p.Func("f").Loops[0]
		if c.trip == 0 {
			if l.TripKnown {
				t.Errorf("%q: expected runtime trip, got %d", c.expr, l.Trip)
			}
			continue
		}
		if !l.TripKnown || l.Trip != c.trip {
			t.Errorf("%q: trip = %d (known=%v), want %d", c.expr, l.Trip, l.TripKnown, c.trip)
		}
	}
}

func TestFlippedComparisonBound(t *testing.T) {
	p := lowerSrc(t, `
void f() {
    for (int i = 0; 100 > i; i++) { }
}
`)
	l := p.Func("f").Loops[0]
	if !l.TripKnown || l.Trip != 100 {
		t.Fatalf("flipped bound: trip = %d known=%v", l.Trip, l.TripKnown)
	}
}

func TestNotEqualLoopBound(t *testing.T) {
	p := lowerSrc(t, `
void f() {
    for (int i = 0; i != 64; i++) { }
}
`)
	l := p.Func("f").Loops[0]
	if !l.TripKnown || l.Trip != 64 {
		t.Fatalf("!= bound: trip = %d known=%v", l.Trip, l.TripKnown)
	}
}

func TestAssignFormStep(t *testing.T) {
	p := lowerSrc(t, `
void f() {
    for (int i = 0; i < 60; i = i + 3) { }
    for (int j = 60; j > 0; j = j - 5) { }
}
`)
	if got := p.Func("f").Loops[0].Trip; got != 20 {
		t.Errorf("i=i+3 trip = %d, want 20", got)
	}
	if got := p.Func("f").Loops[1].Trip; got != 12 {
		t.Errorf("j=j-5 trip = %d, want 12", got)
	}
}

func TestMinMaxReductionVariants(t *testing.T) {
	cases := []struct {
		rhs  string
		want ir.Op
	}{
		{"a[i] > m ? a[i] : m", ir.OpMax},
		{"a[i] < m ? a[i] : m", ir.OpMin},
		{"m < a[i] ? a[i] : m", ir.OpMax},
		{"m > a[i] ? a[i] : m", ir.OpMin},
	}
	for _, c := range cases {
		src := `
int a[128];
int f() {
    int m = 0;
    for (int i = 0; i < 128; i++) {
        m = ` + c.rhs + `;
    }
    return m;
}
`
		p := lowerSrc(t, src)
		l := p.Func("f").Loops[0]
		if len(l.Reductions) != 1 || l.Reductions[0].Op != c.want {
			t.Errorf("%q: reductions = %+v, want %s", c.rhs, l.Reductions, c.want)
		}
	}
}

func TestBitwiseReductions(t *testing.T) {
	for _, c := range []struct {
		op   string
		want ir.Op
	}{{"&=", ir.OpAnd}, {"|=", ir.OpOr}, {"^=", ir.OpXor}, {"*=", ir.OpMul}} {
		src := `
int a[64];
int f() {
    int acc = 1;
    for (int i = 0; i < 64; i++) {
        acc ` + c.op + ` a[i];
    }
    return acc;
}
`
		p := lowerSrc(t, src)
		l := p.Func("f").Loops[0]
		if len(l.Reductions) != 1 || l.Reductions[0].Op != c.want {
			t.Errorf("%s: reductions = %+v", c.op, l.Reductions)
		}
	}
}

func TestCompoundStoreLoadsOldValue(t *testing.T) {
	p := lowerSrc(t, `
int a[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] *= 3;
    }
}
`)
	l := p.Func("f").Loops[0]
	if l.LoadCount() != 1 || storeCount(l) != 1 {
		t.Fatalf("compound store loads/stores = %d/%d, want 1/1", l.LoadCount(), storeCount(l))
	}
	hasMul := false
	for _, in := range l.Body {
		if in.Op == ir.OpMul {
			hasMul = true
		}
	}
	if !hasMul {
		t.Error("compound *= lost its multiply")
	}
}

func TestBuiltinCalls(t *testing.T) {
	p := lowerSrc(t, `
double a[64];
double b[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = sqrt(b[i]) + fabs(b[i]) + max(1, 2) + min(3, 4);
    }
}
`)
	l := p.Func("f").Loops[0]
	if l.HasCall {
		t.Fatal("builtins must not mark the loop as calling")
	}
	seen := map[ir.Op]bool{}
	for _, in := range l.Body {
		seen[in.Op] = true
	}
	for _, want := range []ir.Op{ir.OpDiv /* sqrt proxy */, ir.OpAbs, ir.OpMax, ir.OpMin} {
		if !seen[want] {
			t.Errorf("builtin op %s missing from body", want)
		}
	}
}

func TestElseBranchLowering(t *testing.T) {
	p := lowerSrc(t, `
int a[128];
int b[128];
void f() {
    for (int i = 0; i < 128; i++) {
        if (a[i] > 0) {
            b[i] = 1;
        } else {
            b[i] = 2;
        }
    }
}
`)
	l := p.Func("f").Loops[0]
	if !l.HasIf {
		t.Fatal("HasIf not set")
	}
	if storeCount(l) != 2 {
		t.Fatalf("stores = %d, want 2 (both branches)", storeCount(l))
	}
	for _, a := range l.Accesses {
		if a.Kind == ir.Store && !a.Predicated {
			t.Error("branch store not predicated")
		}
	}
}

func TestDivisionIndexIsNonAffine(t *testing.T) {
	p := lowerSrc(t, `
int a[256];
int b[256];
void f() {
    for (int i = 0; i < 256; i++) {
        a[i] = b[i / 2];
    }
}
`)
	l := p.Func("f").Loops[0]
	for _, acc := range l.Accesses {
		if acc.Array == "b" && acc.Affine {
			t.Error("b[i/2] must be non-affine (not linear in i)")
		}
	}
}

func TestRuntimeScalarOffsetKeepsStride(t *testing.T) {
	// a[i + off] with runtime off: stride known, alignment not.
	p := lowerSrc(t, `
int a[4096];
int b[4096];
void f(int off) {
    for (int i = 0; i < 1024; i++) {
        a[i] = b[i + off];
    }
}
`)
	l := p.Func("f").Loops[0]
	for _, acc := range l.Accesses {
		if acc.Array != "b" {
			continue
		}
		if !acc.Affine {
			t.Fatal("b[i+off] should stay affine with unknown offset")
		}
		if acc.StrideFor(l.Label) != 1 {
			t.Fatalf("stride = %d, want 1", acc.StrideFor(l.Label))
		}
		if acc.Aligned {
			t.Error("unknown offset cannot be statically aligned")
		}
	}
}

func TestIncDecInsideBody(t *testing.T) {
	p := lowerSrc(t, `
int f() {
    int count = 0;
    for (int i = 0; i < 32; i++) {
        count++;
    }
    return count;
}
`)
	l := p.Func("f").Loops[0]
	if len(l.Body) == 0 {
		t.Fatal("count++ produced no ops")
	}
}

func TestDefaultTripFallback(t *testing.T) {
	prog := lang.MustParse(`
int a[8192];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = i;
    }
}
`)
	out, err := Program(prog, Options{DefaultTrip: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Func("f").Loops[0].Trip; got != 99 {
		t.Fatalf("default trip = %d, want 99", got)
	}
	// Zero default gets the package fallback.
	out2, err := Program(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out2.Func("f").Loops[0].Trip; got != 256 {
		t.Fatalf("fallback trip = %d, want 256", got)
	}
}

func TestExpandedReductionForms(t *testing.T) {
	for _, rhs := range []string{"s + a[i]", "a[i] + s", "s - a[i]", "s * a[i]"} {
		src := `
int a[64];
int f() {
    int s = 1;
    for (int i = 0; i < 64; i++) {
        s = ` + rhs + `;
    }
    return s;
}
`
		p := lowerSrc(t, src)
		l := p.Func("f").Loops[0]
		if len(l.Reductions) != 1 {
			t.Errorf("%q: reductions = %+v", rhs, l.Reductions)
		}
	}
}

func TestLogicalOperatorsLower(t *testing.T) {
	p := lowerSrc(t, `
int a[128];
int b[128];
void f() {
    for (int i = 0; i < 128; i++) {
        if (a[i] > 0 && b[i] < 10 || a[i] == 5) {
            a[i] = 0;
        }
    }
}
`)
	l := p.Func("f").Loops[0]
	cmp := 0
	for _, in := range l.Body {
		if in.Op == ir.OpCmp {
			cmp++
		}
	}
	if cmp < 3 {
		t.Errorf("comparisons = %d, want >= 3", cmp)
	}
}
