package ir

import (
	"strings"
	"testing"

	"neurovec/internal/lang"
)

func leafLoop(label string, trip int64) *Loop {
	return &Loop{Label: label, IndexVar: "i", Trip: trip, TripKnown: true, Step: 1}
}

func TestLoopNestWalkOrder(t *testing.T) {
	root := leafLoop("L0", 4)
	mid := leafLoop("L1", 8)
	inner := leafLoop("L2", 16)
	root.Children = []*Loop{mid}
	mid.Children = []*Loop{inner}

	var order []string
	root.Walk(func(l *Loop) { order = append(order, l.Label) })
	want := "L0,L1,L2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("walk order = %s, want %s", got, want)
	}
}

func TestInnermostLoops(t *testing.T) {
	root := leafLoop("L0", 4)
	a := leafLoop("L1", 8)
	b := leafLoop("L2", 8)
	root.Children = []*Loop{a, b}
	inner := root.InnermostLoops()
	if len(inner) != 2 || inner[0] != a || inner[1] != b {
		t.Fatalf("innermost = %v", inner)
	}
	if root.Innermost() {
		t.Error("root with children reported innermost")
	}
	if !a.Innermost() {
		t.Error("leaf not innermost")
	}
}

func TestTotalIterations(t *testing.T) {
	root := leafLoop("L0", 4)
	mid := leafLoop("L1", 8)
	inner := leafLoop("L2", 16)
	root.Children = []*Loop{mid}
	mid.Children = []*Loop{inner}

	if got := root.TotalIterations(inner); got != 4*8*16 {
		t.Errorf("TotalIterations = %d, want %d", got, 4*8*16)
	}
	if got := root.TotalIterations(root); got != 4 {
		t.Errorf("self iterations = %d, want 4", got)
	}
	other := leafLoop("LX", 2)
	if got := root.TotalIterations(other); got != 0 {
		t.Errorf("foreign loop iterations = %d, want 0", got)
	}
}

func TestAccessHelpers(t *testing.T) {
	a := &Access{
		Kind:    Load,
		Array:   "buf",
		Elem:    lang.TypeFloat,
		Strides: map[string]int64{"L0": 2, "L1": 0},
		Offset:  1,
		Affine:  true,
	}
	if a.StrideFor("L0") != 2 || a.StrideFor("L1") != 0 || a.StrideFor("LZ") != 0 {
		t.Error("StrideFor wrong")
	}
	if a.InvariantIn("L0") {
		t.Error("strided access reported invariant")
	}
	if !a.InvariantIn("L1") {
		t.Error("zero-stride access not invariant")
	}
	if a.Bytes() != 4 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
	nonAffine := &Access{Kind: Store, Array: "x", Affine: false}
	if nonAffine.InvariantIn("L0") {
		t.Error("non-affine access cannot be invariant")
	}
}

func TestCounts(t *testing.T) {
	l := leafLoop("L0", 4)
	l.Body = []Instr{{Op: OpAdd, Type: lang.TypeInt}, {Op: OpMul, Type: lang.TypeInt}}
	l.Accesses = []*Access{
		{Kind: Load, Array: "a", Affine: true},
		{Kind: Load, Array: "b", Affine: true},
		{Kind: Store, Array: "c", Affine: true},
	}
	ops, loads := len(l.Body), l.LoadCount()
	if stores := len(l.Accesses) - loads; ops != 2 || loads != 2 || stores != 1 {
		t.Fatalf("counts = %d/%d/%d", ops, loads, stores)
	}
}

func TestStringDumps(t *testing.T) {
	l := leafLoop("L0", 4)
	l.Body = []Instr{
		{Op: OpConvert, Type: lang.TypeInt, From: lang.TypeShort},
		{Op: OpSelect, Type: lang.TypeInt, Predicated: true},
	}
	l.Accesses = []*Access{{
		Kind: Load, Array: "a", Elem: lang.TypeInt,
		Strides: map[string]int64{"L0": 1}, Offset: 3, Affine: true,
	}}
	l.Reductions = []Reduction{{Var: "s", Op: OpAdd, Type: lang.TypeInt}}
	s := l.String()
	for _, want := range []string{"loop L0", "convert.int<-short", "[pred]", "load a.int", "reduce s add.int"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains((&Access{Kind: Store, Array: "z", Affine: false}).String(), "non-affine") {
		t.Error("non-affine marker missing")
	}
}

func TestOpString(t *testing.T) {
	// Every opcode must have a mnemonic (no fallthrough to Op(N)).
	for op := OpAdd; op <= OpCall; op++ {
		if strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("opcode %d has no name", int(op))
		}
	}
	if OpAdd.String() != "add" || OpCall.String() != "call" {
		t.Error("opcode names wrong")
	}
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind names wrong")
	}
}

func TestProgramHelpers(t *testing.T) {
	inner := leafLoop("L1", 8)
	root := leafLoop("L0", 4)
	root.Children = []*Loop{inner}
	f := &Func{Name: "f", Loops: []*Loop{root}}
	p := &Program{Funcs: []*Func{f}}

	if p.Func("f") != f || p.Func("g") != nil {
		t.Error("Program.Func wrong")
	}
	if got := p.InnermostLoops(); len(got) != 1 || got[0] != inner {
		t.Errorf("InnermostLoops = %v", got)
	}
	if p.FindLoop("L1") != inner || p.FindLoop("L0") != root {
		t.Error("FindLoop wrong")
	}
	if p.FindLoop("LZ") != nil {
		t.Error("FindLoop should miss")
	}
	var all []*Loop
	for _, l := range f.Loops {
		l.Walk(func(x *Loop) { all = append(all, x) })
	}
	if len(all) != 2 {
		t.Errorf("loops walked = %d, want 2", len(all))
	}
}

func TestNegativeTripClamp(t *testing.T) {
	l := leafLoop("L0", -5)
	if got := l.TotalIterations(l); got != 0 {
		t.Errorf("negative trip iterations = %d, want 0", got)
	}
}
