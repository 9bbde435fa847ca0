package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/vectorizer"
)

func TestExplainBoundNames(t *testing.T) {
	cfg := DefaultConfig()

	// Float reduction at IF=1 is latency bound.
	red := lower.MustProgram(lang.MustParse(`
float x[4096];
float f() {
    float s = 0;
    for (int i = 0; i < 4096; i++) {
        s += x[i];
    }
    return s;
}
`)).InnermostLoops()[0]
	b := Explain(red, vectorizer.New(red, cfg.Arch, 8, 1), cfg)
	if b.Bound != "latency" {
		t.Errorf("float reduction IF=1 bound = %s, want latency", b.Bound)
	}

	// DRAM-resident streaming copy is memory bound.
	big := lower.MustProgram(lang.MustParse(`
double a[4194304];
double b[4194304];
void f() {
    for (int i = 0; i < 4194304; i++) {
        a[i] = b[i];
    }
}
`)).InnermostLoops()[0]
	b = Explain(big, vectorizer.New(big, cfg.Arch, 8, 2), cfg)
	if b.Bound != "memory" {
		t.Errorf("32MB stream bound = %s, want memory", b.Bound)
	}

	// Scalar plan reports scalar.
	b = Explain(big, vectorizer.New(big, cfg.Arch, 1, 1), cfg)
	if b.Bound != "scalar" {
		t.Errorf("scalar plan bound = %s", b.Bound)
	}
}

func TestExplainString(t *testing.T) {
	cfg := DefaultConfig()
	l := lower.MustProgram(lang.MustParse(dotSrc)).InnermostLoops()[0]
	s := Explain(l, vectorizer.New(l, cfg.Arch, 16, 2), cfg).String()
	for _, want := range []string{"VF=16", "IF=2", "bound", "groups"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// Property: totals are always positive and finite across the whole factor
// grid for a variety of loops, and group components are non-negative.
func TestExplainSaneProperty(t *testing.T) {
	cfg := DefaultConfig()
	loops := []string{dotSrc, `
short s[2048];
int d[2048];
void f() {
    for (int i = 0; i < 2048; i++) {
        d[i] = (int) s[i] * 3;
    }
}
`, `
int a[512];
int b[1024];
void f() {
    for (int i = 0; i < 512; i++) {
        a[i] = b[2 * i];
    }
}
`}
	parsed := make([]*ir.Loop, len(loops))
	for i, src := range loops {
		parsed[i] = lower.MustProgram(lang.MustParse(src)).InnermostLoops()[0]
	}
	f := func(which, vfSel, ifSel uint8) bool {
		l := parsed[int(which)%len(parsed)]
		vf := cfg.Arch.VFs()[int(vfSel)%7]
		ifc := cfg.Arch.IFs()[int(ifSel)%5]
		b := Explain(l, vectorizer.New(l, cfg.Arch, vf, ifc), cfg)
		if !(b.Total > 0) || math.IsInf(b.Total, 0) || math.IsNaN(b.Total) {
			return false
		}
		return b.IssueCycles >= 0 && b.PortCycles >= 0 && b.LatencyCycles >= 0 &&
			b.MemoryCycles >= 0 && b.SpillCycles >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
