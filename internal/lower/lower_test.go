package lower

import (
	"testing"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
)

func lowerSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := Program(prog, DefaultOptions())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return out
}

func TestDotProductLowering(t *testing.T) {
	p := lowerSrc(t, `
int vec[512];
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}
`)
	fn := p.Func("example1")
	if fn == nil || len(fn.Loops) != 1 {
		t.Fatalf("funcs/loops missing: %+v", p.Funcs)
	}
	l := fn.Loops[0]
	if l.Trip != 512 || !l.TripKnown {
		t.Errorf("trip = %d known=%v, want 512 known", l.Trip, l.TripKnown)
	}
	if len(l.Reductions) != 1 || l.Reductions[0].Op != ir.OpAdd {
		t.Fatalf("reductions = %+v", l.Reductions)
	}
	if got := l.LoadCount(); got != 2 {
		t.Errorf("loads = %d, want 2", got)
	}
	if got := storeCount(l); got != 0 {
		t.Errorf("stores = %d, want 0 (reduction, not store)", got)
	}
	// mul + reduction add.
	hasMul := false
	for _, in := range l.Body {
		if in.Op == ir.OpMul {
			hasMul = true
		}
	}
	if !hasMul {
		t.Errorf("no mul in body: %v", l.Body)
	}
}

func TestTripCountForms(t *testing.T) {
	cases := []struct {
		src  string
		trip int64
	}{
		{"void f() { for (int i = 0; i < 100; i++) {} }", 100},
		{"void f() { for (int i = 0; i <= 100; i++) {} }", 101},
		{"void f() { for (int i = 0; i < 100; i += 2) {} }", 50},
		{"void f() { for (int i = 0; i < 101; i += 2) {} }", 51},
		{"void f() { for (int i = 10; i < 100; i++) {} }", 90},
		{"void f() { for (int i = 99; i >= 0; i--) {} }", 100},
		{"void f() { for (int i = 100; i > 0; i -= 4) {} }", 25},
		{"int N = 64;\nvoid f() { for (int i = 0; i < N * 2; i++) {} }", 128},
		{"int N = 64;\nvoid f() { for (int i = 0; i < N / 2 - 1; i++) {} }", 31},
		{"void f() { for (int i = 0; i < 512; i = i + 8) {} }", 64},
	}
	for _, c := range cases {
		p := lowerSrc(t, c.src)
		l := p.Func("f").Loops[0]
		if !l.TripKnown {
			t.Errorf("%q: trip not known", c.src)
		}
		if l.Trip != c.trip {
			t.Errorf("%q: trip = %d, want %d", c.src, l.Trip, c.trip)
		}
	}
}

func TestRuntimeBound(t *testing.T) {
	p, err := lang.Parse(`
int a[4096];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = i;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Program(p, Options{ParamValues: map[string]int64{"n": 777}, DefaultTrip: 64})
	if err != nil {
		t.Fatal(err)
	}
	l := out.Func("f").Loops[0]
	if l.TripKnown {
		t.Error("runtime bound marked as known")
	}
	if l.Trip != 777 {
		t.Errorf("trip = %d, want 777 from ParamValues", l.Trip)
	}
}

func TestAffineStrides(t *testing.T) {
	p := lowerSrc(t, `
int a[512];
int b[512];
int c[512];
int d[512];
void f() {
    for (int i = 0; i < 256; i++) {
        a[i] = b[2 * i + 1] * c[2 * i] - d[i + 3];
    }
}
`)
	l := p.Func("f").Loops[0]
	label := l.Label
	byArray := map[string]*ir.Access{}
	for _, a := range l.Accesses {
		byArray[a.Array] = a
	}
	if got := byArray["b"].StrideFor(label); got != 2 {
		t.Errorf("b stride = %d, want 2", got)
	}
	if got := byArray["b"].Offset; got != 1 {
		t.Errorf("b offset = %d, want 1", got)
	}
	if got := byArray["c"].StrideFor(label); got != 2 {
		t.Errorf("c stride = %d, want 2", got)
	}
	if got := byArray["d"].Offset; got != 3 {
		t.Errorf("d offset = %d, want 3", got)
	}
	if byArray["a"].Kind != ir.Store {
		t.Errorf("a should be a store")
	}
	if !byArray["a"].Aligned {
		t.Errorf("a[i] should be aligned")
	}
	if byArray["d"].Aligned {
		t.Errorf("d[i+3] should not be statically aligned")
	}
}

func Test2DFlattening(t *testing.T) {
	p := lowerSrc(t, `
float A[64][32];
void f() {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 32; j++) {
            A[i][j] = 1.0;
        }
    }
}
`)
	outer := p.Func("f").Loops[0]
	if len(outer.Children) != 1 {
		t.Fatalf("children = %d", len(outer.Children))
	}
	inner := outer.Children[0]
	acc := inner.Accesses[0]
	if got := acc.StrideFor(outer.Label); got != 32 {
		t.Errorf("stride over outer = %d, want 32 (row length)", got)
	}
	if got := acc.StrideFor(inner.Label); got != 1 {
		t.Errorf("stride over inner = %d, want 1", got)
	}
}

func TestMatmulReductionAtDepth(t *testing.T) {
	p := lowerSrc(t, `
float A[64][64];
float B[64][64];
float C[64][64];
void matmul(float alpha) {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            float sum = 0;
            for (int k = 0; k < 64; k++) {
                sum += alpha * A[i][k] * B[k][j];
            }
            C[i][j] = sum;
        }
    }
}
`)
	nest := p.Func("matmul").Loops[0]
	inner := nest.InnermostLoops()
	if len(inner) != 1 {
		t.Fatalf("innermost = %d", len(inner))
	}
	k := inner[0]
	if len(k.Reductions) != 1 || k.Reductions[0].Op != ir.OpAdd || k.Reductions[0].Type != lang.TypeFloat {
		t.Fatalf("reductions = %+v", k.Reductions)
	}
	// B[k][j] has stride 64 in k (gather-class access).
	var bAcc *ir.Access
	for _, a := range k.Accesses {
		if a.Array == "B" {
			bAcc = a
		}
	}
	if bAcc == nil || bAcc.StrideFor(k.Label) != 64 {
		t.Fatalf("B access = %+v", bAcc)
	}
	// C store belongs to the middle loop, not the innermost.
	if storeCount(k) != 0 {
		t.Errorf("innermost has %d stores, want 0", storeCount(k))
	}
}

func TestPredicationAndSelect(t *testing.T) {
	p := lowerSrc(t, `
int a[256];
int b[256];
void f() {
    for (int i = 0; i < 256; i++) {
        if (a[i] > 10) {
            b[i] = a[i];
        }
    }
}
`)
	l := p.Func("f").Loops[0]
	if !l.HasIf {
		t.Error("HasIf not set")
	}
	predStores := 0
	for _, a := range l.Accesses {
		if a.Kind == ir.Store && a.Predicated {
			predStores++
		}
	}
	if predStores != 1 {
		t.Errorf("predicated stores = %d, want 1", predStores)
	}
}

func TestTernaryLowersToSelect(t *testing.T) {
	p := lowerSrc(t, `
int a[256];
int b[256];
int MAX = 255;
void f() {
    for (int i = 0; i < 256; i++) {
        int j = a[i];
        b[i] = j > MAX ? MAX : 0;
    }
}
`)
	l := p.Func("f").Loops[0]
	hasSelect, hasCmp := false, false
	for _, in := range l.Body {
		if in.Op == ir.OpSelect {
			hasSelect = true
		}
		if in.Op == ir.OpCmp {
			hasCmp = true
		}
	}
	if !hasSelect || !hasCmp {
		t.Errorf("body = %v, want cmp+select", l.Body)
	}
	if l.HasIf {
		t.Error("ternary should not set HasIf (if-conversion free)")
	}
}

func TestConversionLowering(t *testing.T) {
	p := lowerSrc(t, `
short sa[128];
int ia[128];
void f() {
    for (int i = 0; i < 128; i++) {
        ia[i] = (int) sa[i];
    }
}
`)
	l := p.Func("f").Loops[0]
	hasConv := false
	for _, in := range l.Body {
		if in.Op == ir.OpConvert && in.From == lang.TypeShort && in.Type == lang.TypeInt {
			hasConv = true
		}
	}
	if !hasConv {
		t.Errorf("no short->int convert in body: %v", l.Body)
	}
}

func TestNonAffineIndexIsGatherClass(t *testing.T) {
	p := lowerSrc(t, `
int idx[256];
int data[4096];
int out[256];
void f() {
    for (int i = 0; i < 256; i++) {
        out[i] = data[idx[i]];
    }
}
`)
	l := p.Func("f").Loops[0]
	var dataAcc *ir.Access
	for _, a := range l.Accesses {
		if a.Array == "data" {
			dataAcc = a
		}
	}
	if dataAcc == nil {
		t.Fatal("no access to data")
	}
	if dataAcc.Affine {
		t.Error("data[idx[i]] marked affine")
	}
}

func TestOpaqueCallBlocksVectorization(t *testing.T) {
	p := lowerSrc(t, `
int a[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = helper(i);
    }
}
`)
	l := p.Func("f").Loops[0]
	if !l.HasCall {
		t.Error("HasCall not set for opaque call")
	}
}

func TestScalarOpsOutsideLoops(t *testing.T) {
	p := lowerSrc(t, `
int f(int x) {
    int y = x * 3 + 1;
    int z = y * y;
    for (int i = 0; i < 8; i++) { }
    return z - y;
}
`)
	fn := p.Func("f")
	if fn.ScalarOps < 4 {
		t.Errorf("ScalarOps = %d, want >= 4", fn.ScalarOps)
	}
}

func TestMinMaxReduction(t *testing.T) {
	p := lowerSrc(t, `
int a[512];
int f() {
    int m = 0;
    for (int i = 0; i < 512; i++) {
        m = a[i] > m ? a[i] : m;
    }
    return m;
}
`)
	l := p.Func("f").Loops[0]
	if len(l.Reductions) != 1 || l.Reductions[0].Op != ir.OpMax {
		t.Fatalf("reductions = %+v, want max", l.Reductions)
	}
}

func TestPragmaCarriedToIR(t *testing.T) {
	p := lowerSrc(t, `
int a[128];
void f() {
    #pragma clang loop vectorize_width(16) interleave_count(4)
    for (int i = 0; i < 128; i++) {
        a[i] = i;
    }
}
`)
	l := p.Func("f").Loops[0]
	if l.Pragma == nil || l.Pragma.VF != 16 || l.Pragma.IF != 4 {
		t.Fatalf("pragma = %+v", l.Pragma)
	}
}

func TestStripMinedCopyExample1(t *testing.T) {
	// Example #1 from the paper: manual stride-2 unroll of conversions.
	p := lowerSrc(t, `
int N = 1024;
int assign1[1024];
int assign2[1024];
int assign3[1024];
short short_a[1024];
short short_b[1024];
short short_c[1024];
void f() {
    for (int i = 0; i < N - 1; i += 2) {
        assign1[i] = (int) short_a[i];
        assign1[i + 1] = (int) short_a[i + 1];
        assign2[i] = (int) short_b[i];
        assign2[i + 1] = (int) short_b[i + 1];
        assign3[i] = (int) short_c[i];
        assign3[i + 1] = (int) short_c[i + 1];
    }
}
`)
	l := p.Func("f").Loops[0]
	if l.Trip != 512 {
		t.Errorf("trip = %d, want 512 ((1023)/2 rounded up)", l.Trip)
	}
	if storeCount(l) != 6 || l.LoadCount() != 6 {
		t.Errorf("stores/loads = %d/%d, want 6/6", storeCount(l), l.LoadCount())
	}
	conv := 0
	for _, in := range l.Body {
		if in.Op == ir.OpConvert {
			conv++
		}
	}
	if conv != 6 {
		t.Errorf("converts = %d, want 6", conv)
	}
}

func TestReverseIterationStride(t *testing.T) {
	p := lowerSrc(t, `
int a[256];
int b[256];
void f() {
    for (int i = 255; i >= 0; i--) {
        a[i] = b[255 - i];
    }
}
`)
	l := p.Func("f").Loops[0]
	if l.Trip != 256 {
		t.Fatalf("trip = %d", l.Trip)
	}
	// Accesses are normalized to the iteration space [0, trip): iteration k
	// has i = 255 - k, so a[i] is the reversed stream (stride -1 from offset
	// 255) and b[255 - i] the forward unit stream (stride +1 from offset 0).
	var aAcc, bAcc *ir.Access
	for _, acc := range l.Accesses {
		switch acc.Array {
		case "a":
			aAcc = acc
		case "b":
			bAcc = acc
		}
	}
	if bAcc.StrideFor(l.Label) != 1 || bAcc.Offset != 0 {
		t.Errorf("b stride/offset = %d/%d, want 1/0", bAcc.StrideFor(l.Label), bAcc.Offset)
	}
	if aAcc.StrideFor(l.Label) != -1 || aAcc.Offset != 255 {
		t.Errorf("a stride/offset = %d/%d, want -1/255", aAcc.StrideFor(l.Label), aAcc.Offset)
	}
}

func TestLoopInvariantAccess(t *testing.T) {
	p := lowerSrc(t, `
int a[64];
int b[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = b[5];
    }
}
`)
	l := p.Func("f").Loops[0]
	for _, acc := range l.Accesses {
		if acc.Array == "b" && !acc.InvariantIn(l.Label) {
			t.Errorf("b[5] should be invariant in the loop")
		}
	}
}

// storeCount counts store accesses in the loop's immediate body.
func storeCount(l *ir.Loop) int { return len(l.Accesses) - l.LoadCount() }
