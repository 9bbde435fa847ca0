package lang

import (
	"strings"
	"testing"
)

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "int x = 1e+;", "$"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: expected lex error", src)
		}
	}
}

func TestParserErrorCases(t *testing.T) {
	cases := []string{
		"int",                            // truncated declaration
		"int f( { }",                     // bad parameter list
		"int f() { for (;;) }",           // for without body statement list is ok? missing body
		"int f() { a[1 = 2; }",           // unclosed subscript
		"int f() { 3 = x; }",             // assign to rvalue
		"int f() { x++; y--; (1+2)++; }", // inc of rvalue
		"int a[]",                        // missing dimension
		"void f() { if (1 { } }",         // bad if
		"void f() { return 1 + ; }",      // bad expr
		"void f() { for (int i = 0; i <", // truncated
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestParseVoidParamList(t *testing.T) {
	p, err := Parse("int f(void) { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs[0].Params) != 0 {
		t.Fatal("void parameter list should be empty")
	}
}

func TestParseArrayParams(t *testing.T) {
	p, err := Parse("void f(int a[], float b[16]) { }")
	if err != nil {
		t.Fatal(err)
	}
	ps := p.Funcs[0].Params
	if len(ps) != 2 {
		t.Fatalf("params = %d", len(ps))
	}
	if !ps[0].Type.IsArray() || ps[0].Type.Dims[0] != 0 {
		t.Errorf("a[] type = %+v", ps[0].Type)
	}
	if ps[1].Type.Dims[0] != 16 {
		t.Errorf("b[16] type = %+v", ps[1].Type)
	}
}

func TestParseTypeSpellings(t *testing.T) {
	cases := map[string]ScalarType{
		"unsigned int x;":  TypeInt,
		"unsigned char c;": TypeChar,
		"long long y;":     TypeLong,
		"short int s;":     TypeShort,
		"long int z;":      TypeLong,
	}
	for src, want := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := p.Globals[0].Type.Scalar; got != want {
			t.Errorf("%q: type = %s, want %s", src, got, want)
		}
	}
}

func TestParseStaticConstQualifiers(t *testing.T) {
	p, err := Parse("static const int N = 8;\nvoid f() { const int m = N; }")
	if err != nil {
		t.Fatal(err)
	}
	if p.Globals[0].Name != "N" {
		t.Fatal("qualified global lost")
	}
}

func TestStringersAndHelpers(t *testing.T) {
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Error("Pos.String wrong")
	}
	tok := Token{Kind: IDENT, Text: "abc"}
	if !strings.Contains(tok.String(), "abc") {
		t.Error("Token.String missing text")
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should render")
	}
	ty := Type{Scalar: TypeFloat, Dims: []int64{4, 8}}
	if ty.String() != "float[4][8]" {
		t.Errorf("Type.String = %s", ty)
	}
	pr := Pragma{}
	if pr.String() != "#pragma clang loop" {
		t.Errorf("empty pragma = %q", pr.String())
	}
	pr = Pragma{VF: 8}
	if pr.String() != "#pragma clang loop vectorize_width(8)" {
		t.Errorf("VF-only pragma = %q", pr.String())
	}
}

func TestWalkVisitsIfBranches(t *testing.T) {
	p := MustParse(`
void f(int x) {
    if (x > 0) {
        x = 1;
    } else {
        for (int i = 0; i < 4; i++) { }
    }
}
`)
	loops := p.Funcs[0].Loops()
	if len(loops) != 1 {
		t.Fatalf("loop in else branch not found: %d", len(loops))
	}
	// Early termination.
	count := 0
	Walk(p.Funcs[0].Body, func(Stmt) bool { count++; return false })
	if count != 1 {
		t.Fatalf("walk did not stop: %d", count)
	}
}

func TestPrintExprForms(t *testing.T) {
	p := MustParse(`
int g(int a, int b) {
    return -a + ~b + !a + max(a, b) + (a > b ? a : b) + (long) a;
}
`)
	out := PrintExpr(p.Funcs[0].Body.Stmts[0].(*ReturnStmt).Value)
	for _, want := range []string{"-a", "~b", "!a", "max(a, b)", "? a : b", "(long) a"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed expr missing %q: %s", want, out)
		}
	}
	// The printed form must reparse.
	if _, err := Parse("int h(int a, int b) { return " + out + "; }"); err != nil {
		t.Fatalf("printed expression does not reparse: %v\n%s", err, out)
	}
}

func TestPrintStmtAndGlobalsWithInit(t *testing.T) {
	p := MustParse("float alpha = 2.5;\nvoid f() { return; }")
	out := Print(p)
	if !strings.Contains(out, "float alpha = 2.5;") {
		t.Fatalf("global init lost:\n%s", out)
	}
	if got := PrintStmt(p.Funcs[0].Body.Stmts[0]); !strings.Contains(got, "return;") {
		t.Fatalf("PrintStmt = %q", got)
	}
}

func TestStackedPragmasMerge(t *testing.T) {
	p := MustParse(`
int a[64];
void f() {
    #pragma clang loop vectorize_width(8)
    #pragma clang loop interleave_count(2)
    for (int i = 0; i < 64; i++) {
        a[i] = i;
    }
}
`)
	pr := p.Funcs[0].Loops()[0].Pragma
	if pr == nil || pr.VF != 8 || pr.IF != 2 {
		t.Fatalf("stacked pragmas = %+v", pr)
	}
}

func TestNonLoopPragmaInsideFunctionIgnored(t *testing.T) {
	p, err := Parse(`
void f() {
    #pragma unroll
    int x = 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs[0].Body.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(p.Funcs[0].Body.Stmts))
	}
}

func TestSingleStatementBodies(t *testing.T) {
	p, err := Parse(`
int a[32];
void f() {
    for (int i = 0; i < 32; i++)
        a[i] = i;
    if (a[0] > 0)
        a[0] = 0;
    else
        a[0] = 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	loop := p.Funcs[0].Loops()[0]
	if len(loop.Body.Stmts) != 1 {
		t.Fatalf("single-stmt loop body = %d stmts", len(loop.Body.Stmts))
	}
}
