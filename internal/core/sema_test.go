package core

import (
	"context"
	"errors"
	"testing"

	"neurovec/internal/deps"
	"neurovec/internal/diag"
)

// badSrc has one semantic error (undeclared identifier) plus a warning, and
// still contains a perfectly lowerable loop — the program strict mode must
// reject and lax mode must compile with annotations.
const badSrc = `
int a[64];
void f() {
    int dead;
    a[0] = oops;
    for (int i = 0; i < 64; i++) {
        a[i] = i;
    }
}
`

// warnOnlySrc carries warnings but no errors; strict mode must accept it.
const warnOnlySrc = `
int a[64];
void f() {
    int dead;
    for (int i = 0; i < 64; i++) {
        a[i] = i;
    }
}
`

func TestPredictLoopsLaxAnnotates(t *testing.T) {
	fw := New(DefaultConfig())
	resp, err := fw.PredictLoops(context.Background(), badSrc, nil, WithPolicyName("costmodel"))
	if err != nil {
		t.Fatalf("lax compile failed: %v", err)
	}
	if len(resp.Loops) == 0 {
		t.Fatal("no loop decisions despite best-effort compile")
	}
	if !resp.Diagnostics.HasErrors() {
		t.Fatalf("response diagnostics missing the error:\n%s", resp.Diagnostics.String())
	}
	var codes []string
	for _, d := range resp.Diagnostics {
		codes = append(codes, d.Code)
	}
	if len(codes) < 2 {
		t.Errorf("expected error + warning, got %v", codes)
	}
}

func TestPredictLoopsStrictRejects(t *testing.T) {
	fw := New(DefaultConfig())
	_, err := fw.PredictLoops(context.Background(), badSrc, nil, WithPolicyName("costmodel"), WithStrictSema(), WithSourceName("bad.c"))
	if err == nil {
		t.Fatal("strict compile accepted a program with semantic errors")
	}
	if !errors.Is(err, ErrSemantic) {
		t.Fatalf("error %v does not unwrap to ErrSemantic", err)
	}
	var serr *SemanticError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T is not a *SemanticError", err)
	}
	if !serr.Diags.HasErrors() {
		t.Fatal("SemanticError carries no error diagnostics")
	}
	for _, d := range serr.Diags {
		if d.File != "bad.c" {
			t.Errorf("diagnostic file = %q, want bad.c (WithSourceName)", d.File)
		}
	}
}

func TestPredictLoopsStrictAcceptsWarnings(t *testing.T) {
	fw := New(DefaultConfig())
	resp, err := fw.PredictLoops(context.Background(), warnOnlySrc, nil, WithPolicyName("costmodel"), WithStrictSema())
	if err != nil {
		t.Fatalf("strict compile rejected a warning-only program: %v", err)
	}
	if resp.Diagnostics.HasErrors() {
		t.Fatal("warning-only program reported errors")
	}
	found := false
	for _, d := range resp.Diagnostics {
		if d.Severity == diag.Warning {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings not carried through:\n%s", resp.Diagnostics.String())
	}
}

// TestPredictLoopsCleanHasNoDiagnostics pins the zero-noise contract on the
// happy path: a clean kernel's response has an empty diagnostics list, so
// the field marshals away entirely.
func TestPredictLoopsCleanHasNoDiagnostics(t *testing.T) {
	fw := New(DefaultConfig())
	resp, err := fw.PredictLoops(context.Background(), `
int a[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = i;
    }
}
`, nil, WithPolicyName("costmodel"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Diagnostics) != 0 {
		t.Errorf("clean kernel produced diagnostics:\n%s", resp.Diagnostics.String())
	}
}

// TestSemaFactsReachSimulation asserts the facts pipeline end to end inside
// core: a nest only provable with sema facts gets a vectorized (VF > 1)
// decision through the ordinary inference path.
func TestSemaFactsReachSimulation(t *testing.T) {
	fw := New(DefaultConfig())
	resp, err := fw.PredictLoops(context.Background(), `
int a[256];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i + 64] = a[0] * 2;
    }
}
`, nil, WithPolicyName("costmodel"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(resp.Loops))
	}
	if resp.Loops[0].VF <= 1 {
		t.Errorf("VF = %d; sema facts should legalize vectorization of this nest", resp.Loops[0].VF)
	}
}

// TestDecisionsLegalUnderSemaConstants compiles loops whose store lands one
// element past the load in some iteration, through a constant only sema's
// flow- and scope-aware folding gets right. The dependence analysis must
// cap them at VF 1, and every policy that consults it must decide (1, 1).
func TestDecisionsLegalUnderSemaConstants(t *testing.T) {
	for name, src := range map[string]string{
		"increment before loop": `
int a[256];
void f() {
    int k = 0;
    k++;
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}
`,
		"shadowed global": `
int a[256];
int k = 1;
void f() {
    { int k = 0; a[k] = 0; }
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}
`,
		"assigned in body": `
int a[256];
void f() {
    int k = 0;
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; k = 1; }
}
`,
		"assigned in then, read in else": `
int a[256];
void f(int c) {
    int k = 1;
    if (c) { k = 0; } else {
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
    }
}
`,
		"assigned in an earlier switch arm": `
int a[256];
void f(int c) {
    int k = 1;
    switch (c) {
    case 0: k = 0; break;
    default:
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
    }
}
`,
	} {
		t.Run(name, func(t *testing.T) {
			fw := New(DefaultConfig())
			ctx := context.Background()
			c, err := fw.Compile(ctx, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			l := c.irp.InnermostLoops()[0]
			if r := deps.Analyze(l); r.MaxVF != 1 {
				t.Errorf("MaxVF = %d (%s), want 1", r.MaxVF, r.Reason)
			}
			for _, pol := range []string{"costmodel", "brute"} {
				resp, err := fw.PredictLoops(ctx, src, nil, WithPolicyName(pol))
				if err != nil {
					t.Fatal(err)
				}
				if d := resp.Loops[0]; d.VF != 1 || d.IF != 1 {
					t.Errorf("%s decided (%d, %d), want (1, 1)", pol, d.VF, d.IF)
				}
			}
		})
	}
}
