package vectorizer

import (
	"testing"
	"testing/quick"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/machine"
)

func loopFor(t *testing.T, src string) *ir.Loop {
	t.Helper()
	p := lower.MustProgram(lang.MustParse(src))
	return p.InnermostLoops()[0]
}

const freeSrc = `
int a[4096];
int b[4096];
void f() {
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i] + 1;
    }
}
`

func TestPlanHonorsLegalRequest(t *testing.T) {
	l := loopFor(t, freeSrc)
	arch := machine.IntelAVX2()
	p := New(l, arch, 16, 4)
	if p.VF != 16 || p.IF != 4 || p.Clamped {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlanClampsToDependence(t *testing.T) {
	l := loopFor(t, `
int a[4096];
void f() {
    for (int i = 0; i < 4000; i++) {
        a[i + 4] = a[i];
    }
}
`)
	arch := machine.IntelAVX2()
	p := New(l, arch, 64, 2)
	if p.VF != 4 {
		t.Fatalf("VF = %d, want 4 (dependence distance)", p.VF)
	}
	if !p.Clamped {
		t.Error("not marked clamped")
	}
}

func TestPlanClampsToTrip(t *testing.T) {
	l := loopFor(t, `
int a[16];
int b[16];
void f() {
    for (int i = 0; i < 16; i++) {
        a[i] = b[i];
    }
}
`)
	arch := machine.IntelAVX2()
	p := New(l, arch, 64, 16)
	if p.VF > 16 {
		t.Errorf("VF = %d exceeds trip 16", p.VF)
	}
	if int64(p.VF*p.IF) > 16 {
		t.Errorf("VF*IF = %d exceeds trip 16", p.VF*p.IF)
	}
}

func TestPlanRoundsToPowerOfTwo(t *testing.T) {
	l := loopFor(t, freeSrc)
	arch := machine.IntelAVX2()
	p := New(l, arch, 13, 5)
	if p.VF != 8 || p.IF != 4 || !p.Clamped {
		t.Fatalf("plan = %+v, want clamped (8,4)", p)
	}
	if p := New(l, arch, 0, -1); p.VF != 1 || p.IF != 1 || !p.Clamped {
		t.Fatalf("plan = %+v, want clamped (1,1)", p)
	}
}

func TestFromPragma(t *testing.T) {
	l := loopFor(t, `
int a[4096];
int b[4096];
void f() {
    #pragma clang loop vectorize_width(8) interleave_count(2)
    for (int i = 0; i < 4096; i++) {
        a[i] = b[i];
    }
}
`)
	if l.Pragma == nil {
		t.Fatal("pragma not lowered onto the loop")
	}
	p := New(l, machine.IntelAVX2(), l.Pragma.VF, l.Pragma.IF)
	if p.VF != 8 || p.IF != 2 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestFromPragmaNilWithoutPragma(t *testing.T) {
	l := loopFor(t, freeSrc)
	if l.Pragma != nil {
		t.Fatalf("loop without a pragma carries %+v", l.Pragma)
	}
}

// Property: for any request, the resulting plan is always legal — VF and IF
// are powers of two within the architecture bounds, VF never exceeds the
// dependence limit, and VF*IF never exceeds a known trip count.
func TestPlanAlwaysLegalProperty(t *testing.T) {
	arch := machine.IntelAVX2()
	loops := []*ir.Loop{
		loopFor(t, freeSrc),
		loopFor(t, `
int a[4096];
void f() {
    for (int i = 0; i < 4000; i++) {
        a[i + 8] = a[i];
    }
}
`),
		loopFor(t, `
int a[32];
int b[32];
void f() {
    for (int i = 0; i < 32; i++) {
        a[i] = b[i];
    }
}
`),
	}
	isPow2 := func(v int) bool { return v >= 1 && v&(v-1) == 0 }
	f := func(vfRaw, ifRaw uint8, which uint8) bool {
		l := loops[int(which)%len(loops)]
		p := New(l, arch, int(vfRaw)%200-10, int(ifRaw)%40-5)
		if !isPow2(p.VF) || !isPow2(p.IF) {
			return false
		}
		if p.VF > arch.MaxVF || p.IF > arch.MaxIF {
			return false
		}
		if p.VF > p.MaxLegalVF {
			return false
		}
		if l.TripKnown && l.Trip > 0 && int64(p.VF) > l.Trip {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanString(t *testing.T) {
	l := loopFor(t, freeSrc)
	p := New(l, machine.IntelAVX2(), 8, 2)
	if p.String() == "" {
		t.Fatal("empty plan string")
	}
}
