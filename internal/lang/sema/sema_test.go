package sema

import (
	"strings"
	"testing"

	"neurovec/internal/diag"
	"neurovec/internal/lang"
)

func check(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check("test.c", prog)
}

// TestDiagnosticCodes drives one minimal reproducer per diagnostic code and
// asserts the code fires at the expected position with the expected
// severity. Extra findings on the same program (e.g. an unused-variable
// warning riding along) are allowed; the named one must be present.
func TestDiagnosticCodes(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		code     string
		severity diag.Severity
		line     int
		col      int
	}{
		{"undeclared", "void f() { int x = y + 1; }", CodeUndeclared, diag.Error, 1, 20},
		{"redeclared", "void f() { int d = 0; int d = d + 1; }", CodeRedeclared, diag.Error, 1, 27},
		{"void-var", "void f() { void v; }", CodeVoidVar, diag.Error, 1, 17},
		{"not-an-array", "void f(int s) { int w = s[0]; return; }", CodeNotAnArray, diag.Error, 1, 26},
		{"rank-mismatch", "int a[8];\nvoid f() { int w = a[1][2]; }", CodeRankMismatch, diag.Error, 2, 24},
		{"out-of-bounds", "int a[8];\nvoid f() { a[8] = 1; }", CodeOutOfBounds, diag.Error, 2, 14},
		{"array-as-scalar", "int a[8];\nvoid f() { int q = a; }", CodeArrayAsScalar, diag.Error, 2, 16},
		{"arity", "void f() { int r = min(1); }", CodeArity, diag.Error, 1, 20},
		{"div-by-zero", "void f(int x) { int z = x / 0; }", CodeDivByZero, diag.Error, 1, 27},
		{"non-integer-subscript", "int a[8];\nvoid f() { a[1.5] = 1; }", CodeNonIntegerOp, diag.Error, 2, 14},
		{"return-mismatch", "void f() { return 3; }", CodeReturnMismatch, diag.Error, 1, 12},
		{"narrowing", "void f(float g) { int x = g; x = x + 1; }", CodeNarrowing, diag.Warning, 1, 23},
		{"non-canonical", "int a[8];\nvoid f() { for (int i = 8; i * 2; i = i * 2) { a[0] = i; } }", CodeNonCanonical, diag.Warning, 2, 12},
		{"unknown-struct", "struct p q;\nvoid f() { }", CodeUnknownStruct, diag.Error, 1, 10},
		{"unknown-field", "struct p { float x; };\nstruct p q;\nvoid f() { float w = q.y; w = w + 1; }", CodeUnknownField, diag.Error, 3, 23},
		{"struct-as-scalar", "struct p { float x; };\nstruct p q;\nvoid f() { float w = q + 1; w = w + 1; }", CodeStructAsScalar, diag.Error, 3, 24},
		{"bad-switch", "void f(int n) { switch (n) { case 0: case 0: break; } }", CodeBadSwitch, diag.Error, 1, 38},
		{"bad-break", "void f() { break; }", CodeBadBreak, diag.Error, 1, 12},
		{"early-exit", "int a[8];\nvoid f() { for (int i = 0; i < 8; i++) { if (a[i] > 3) { break; } a[i] = i; } }", CodeEarlyExit, diag.Warning, 2, 58},
		{"iv-mutation", "int a[64];\nvoid f() { for (int j = 0; j < 8; j++) { j = j + 2; a[j] = j; } }", CodeIVMutation, diag.Warning, 2, 44},
		{"unused", "void f() { int unused_one; }", CodeUnused, diag.Warning, 1, 16},
		{"uninit-use", "void f() { int s; int w = s + 1; w = w + 1; }", CodeUninitUse, diag.Warning, 1, 27},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := check(t, tc.src)
			for _, d := range info.Diags {
				if d.Code != tc.code {
					continue
				}
				if d.Severity != tc.severity {
					t.Errorf("%s severity = %v, want %v", tc.code, d.Severity, tc.severity)
				}
				if d.Line != tc.line || d.Col != tc.col {
					t.Errorf("%s at %d:%d, want %d:%d", tc.code, d.Line, d.Col, tc.line, tc.col)
				}
				if d.File != "test.c" {
					t.Errorf("%s file = %q, want test.c", tc.code, d.File)
				}
				return
			}
			t.Fatalf("code %s not reported; got:\n%s", tc.code, info.Diags.String())
		})
	}
}

// TestCleanKernel asserts a canonical vectorizable kernel checks completely
// clean — the zero-noise contract the corpus sweep in CI relies on.
func TestCleanKernel(t *testing.T) {
	info := check(t, `
int a[1024];
int b[1024];
void saxpy(int alpha) {
    for (int i = 0; i < 1024; i++) {
        a[i] = alpha * b[i] + a[i];
    }
}
`)
	if len(info.Diags) != 0 {
		t.Errorf("clean kernel produced diagnostics:\n%s", info.Diags.String())
	}
}

// TestDeterministicOrder re-checks the same program and requires identical
// rendered output, and requires the list to be sorted by position.
func TestDeterministicOrder(t *testing.T) {
	src := `
int a[8];
void f() {
    int q = a;
    int x = y + 1;
    void v;
}
`
	first := check(t, src).Diags.String()
	for i := 0; i < 5; i++ {
		if got := check(t, src).Diags.String(); got != first {
			t.Fatalf("non-deterministic output:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, "SEMA0001") || !strings.Contains(first, "SEMA0003") || !strings.Contains(first, "SEMA0007") {
		t.Errorf("expected codes missing from:\n%s", first)
	}
	var prev *diag.Diagnostic
	for _, d := range check(t, src).Diags {
		d := d
		if prev != nil && (d.Line < prev.Line || (d.Line == prev.Line && d.Col < prev.Col)) {
			t.Errorf("diags not sorted: %s after %s", d.String(), prev.String())
		}
		prev = &d
	}
}

// TestLoopDiagnosticsCarryLabel asserts loop-scoped findings name the loop.
func TestLoopDiagnosticsCarryLabel(t *testing.T) {
	info := check(t, `
int a[64];
void f() {
    for (int i = 0; i < 8; i++) { a[i] = i; }
    for (int j = 8; j * 2; j = j * 2) { a[0] = j; }
}
`)
	found := false
	for _, d := range info.Diags {
		if d.Code == CodeNonCanonical {
			found = true
			if d.Loop != "L1" {
				t.Errorf("non-canonical diagnostic loop = %q, want L1", d.Loop)
			}
		}
	}
	if !found {
		t.Fatalf("no non-canonical diagnostic:\n%s", info.Diags.String())
	}
}

// TestFactsProvenTrip covers the proof side: constant-bound canonical loops
// get a proven trip count; loops whose bound variable mutates in the body,
// or whose induction variable is written, must not.
func TestFactsProvenTrip(t *testing.T) {
	t.Run("constant bounds", func(t *testing.T) {
		info := check(t, `
int a[64];
void f() {
    for (int i = 0; i < 64; i++) { a[i] = i; }
}
`)
		trip, ok := provenTrip(info.Facts, "L0")
		if !ok || trip != 64 {
			t.Errorf("ProvenTrip(L0) = %d, %v; want 64, true", trip, ok)
		}
	})
	t.Run("folded bound variable", func(t *testing.T) {
		info := check(t, `
int a[64];
void f() {
    int n = 32;
    for (int i = 0; i < n; i++) { a[i] = i; }
}
`)
		trip, ok := provenTrip(info.Facts, "L0")
		if !ok || trip != 32 {
			t.Errorf("ProvenTrip(L0) = %d, %v; want 32, true", trip, ok)
		}
	})
	t.Run("bound mutated in body", func(t *testing.T) {
		info := check(t, `
int a[64];
void f() {
    int n = 32;
    for (int i = 0; i < n; i++) { a[i] = i; n = n - 1; }
}
`)
		if trip, ok := provenTrip(info.Facts, "L0"); ok {
			t.Errorf("ProvenTrip(L0) = %d proven despite body-mutated bound", trip)
		}
	})
	t.Run("induction variable mutated", func(t *testing.T) {
		info := check(t, `
int a[64];
void f() {
    for (int i = 0; i < 32; i++) { a[i] = i; i = i + 1; }
}
`)
		if trip, ok := provenTrip(info.Facts, "L0"); ok {
			t.Errorf("ProvenTrip(L0) = %d proven despite mutated induction variable", trip)
		}
	})
	t.Run("symbolic bound", func(t *testing.T) {
		info := check(t, `
int a[64];
void f(int n) {
    for (int i = 0; i < n; i++) { a[i] = i; }
}
`)
		if trip, ok := provenTrip(info.Facts, "L0"); ok {
			t.Errorf("ProvenTrip(L0) = %d proven for symbolic bound", trip)
		}
	})
}

// provenTrip returns the labeled loop's proven trip count.
func provenTrip(f *Facts, label string) (int64, bool) {
	fact, ok := f.Loop(label)
	return fact.Trip, ok && fact.TripProven
}

// TestFactsShape covers the remaining fact fields on a one-loop program.
func TestFactsShape(t *testing.T) {
	info := check(t, `
int a[64];
int b[64];
void f() {
    for (int i = 0; i < 64; i++) { a[i] = b[i] + 1; }
}
`)
	fact, ok := info.Facts.Loop("L0")
	if !ok {
		t.Fatal("no fact for L0")
	}
	if fact.Label != "L0" || fact.IndexVar != "i" {
		t.Errorf("fact = %+v; want L0 over i", fact)
	}
	if info.Facts.Len() != 1 {
		t.Errorf("Facts.Len() = %d, want 1", info.Facts.Len())
	}
}

// TestNilSafety: nil program and nil Facts receivers must not panic.
func TestNilSafety(t *testing.T) {
	info := Check("x.c", nil)
	if info == nil || len(info.Diags) != 0 {
		t.Errorf("Check(nil) = %+v, want empty info", info)
	}
	var f *Facts
	if _, ok := f.Loop("L0"); ok {
		t.Error("nil Facts returned a loop fact")
	}
	if f.Len() != 0 {
		t.Error("nil Facts has nonzero length")
	}
}
