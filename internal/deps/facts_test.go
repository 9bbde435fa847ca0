package deps

import (
	"testing"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
	"neurovec/internal/lower"
)

// lowerLoop lowers src twice with sema's facts threaded through
// lower.Options.Facts and returns both innermost loops: plain has every
// proven trip count cleared, as if no proof had been established, and
// withFacts keeps them. It refuses sources with semantic errors: the sharper
// legality rules are only ever fed facts from clean programs.
func lowerLoop(t *testing.T, src string) (plain, withFacts *ir.Loop) {
	t.Helper()
	prog, err := lang.ParseFile("facts.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := sema.Check("facts.c", prog)
	if info.Diags.HasErrors() {
		t.Fatalf("semantic errors in test source:\n%s", info.Diags.String())
	}

	opts := lower.DefaultOptions()
	opts.Facts = info.Facts
	p1, err := lower.Program(prog, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, f := range p1.Funcs {
		for _, l := range f.Loops {
			l.Walk(func(x *ir.Loop) { x.ProvenTrip = 0 })
		}
	}
	p2, err := lower.Program(prog, opts)
	if err != nil {
		t.Fatalf("lower with facts: %v", err)
	}
	return p1.InnermostLoops()[0], p2.InnermostLoops()[0]
}

// crossCheckIndependent is the independent legality oracle for newly
// accepted loops: it brute-forces every pair of iterations and every
// (store, other-access) pair on the same array, asserting the addresses
// never collide across distinct iterations. Only then is an Unlimited
// verdict trusted.
func crossCheckIndependent(t *testing.T, l *ir.Loop) {
	t.Helper()
	if l.ProvenTrip <= 0 {
		t.Fatal("cross-check needs a proven trip count")
	}
	addr := func(a *ir.Access, i int64) int64 {
		return a.Offset + a.Strides[l.Label]*i
	}
	for _, s := range l.Accesses {
		if s.Kind != ir.Store {
			continue
		}
		for _, o := range l.Accesses {
			if o == s || o.Array != s.Array {
				continue
			}
			for i := int64(0); i < l.ProvenTrip; i++ {
				for j := int64(0); j < l.ProvenTrip; j++ {
					if i == j {
						continue
					}
					if addr(s, i) == addr(o, j) {
						t.Fatalf("loop-carried conflict on %s: store@iter%d and %s@iter%d share element %d",
							s.Array, i, o.Kind, j, addr(s, i))
					}
				}
			}
		}
	}
}

// TestFactsUnlockMixedInvariantStrided is the headline regression: a
// canonical nest mixing an invariant read with a strided store to the same
// array is rejected outright without sema facts, and proven independent —
// hence fully vectorizable — with them.
func TestFactsUnlockMixedInvariantStrided(t *testing.T) {
	src := `
int a[256];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i + 64] = a[0] * 2;
    }
}
`
	plain, withFacts := lowerLoop(t, src)

	r := Analyze(plain)
	if r.MaxVF != 1 {
		t.Fatalf("without facts: MaxVF = %d (%s), want 1 (conservative rejection)", r.MaxVF, r.Reason)
	}
	if plain.ProvenTrip != 0 {
		t.Fatalf("plain lowering carries ProvenTrip = %d, want 0", plain.ProvenTrip)
	}

	if withFacts.ProvenTrip != 64 {
		t.Fatalf("ProvenTrip = %d, want 64", withFacts.ProvenTrip)
	}
	r = Analyze(withFacts)
	if r.MaxVF != Unlimited {
		t.Fatalf("with facts: MaxVF = %d (%s), want unlimited", r.MaxVF, r.Reason)
	}
	crossCheckIndependent(t, withFacts)
}

// TestFactsUnlockDisjointRanges: differing strides whose swept ranges are
// disjoint within the proven trip. The unbounded diophantine test has
// solutions, so only the trip bound can legalize it.
func TestFactsUnlockDisjointRanges(t *testing.T) {
	src := `
int a[256];
void f() {
    for (int i = 0; i < 64; i++) {
        a[2 * i] = a[i + 128] + 1;
    }
}
`
	plain, withFacts := lowerLoop(t, src)

	r := Analyze(plain)
	if r.MaxVF != 1 {
		t.Fatalf("without facts: MaxVF = %d (%s), want 1", r.MaxVF, r.Reason)
	}
	r = Analyze(withFacts)
	if r.MaxVF != Unlimited {
		t.Fatalf("with facts: MaxVF = %d (%s), want unlimited", r.MaxVF, r.Reason)
	}
	crossCheckIndependent(t, withFacts)
}

// TestFactsUnlockDistanceBeyondTrip: equal strides with a constant distance
// no smaller than the proven trip — the dependence is never realized inside
// the iteration space.
func TestFactsUnlockDistanceBeyondTrip(t *testing.T) {
	src := `
int a[256];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i + 64] = a[i] + 1;
    }
}
`
	plain, withFacts := lowerLoop(t, src)

	before := Analyze(plain)
	if before.MaxVF != 64 {
		t.Fatalf("without facts: MaxVF = %d (%s), want 64 (flow distance)", before.MaxVF, before.Reason)
	}
	after := Analyze(withFacts)
	if after.MaxVF != Unlimited {
		t.Fatalf("with facts: MaxVF = %d (%s), want unlimited", after.MaxVF, after.Reason)
	}
	crossCheckIndependent(t, withFacts)
}

// TestFactsStayConservative pins the other side: genuinely conflicting
// nests keep their limits even with a proven trip, and runtime-bound loops
// never gain one.
func TestFactsStayConservative(t *testing.T) {
	t.Run("real recurrence keeps VF 1", func(t *testing.T) {
		_, withFacts := lowerLoop(t, `
int a[256];
void f() {
    for (int i = 1; i < 64; i++) {
        a[i] = a[i - 1] + 1;
    }
}
`)
		if withFacts.ProvenTrip == 0 {
			t.Fatal("expected a proven trip on the canonical recurrence")
		}
		if r := Analyze(withFacts); r.MaxVF != 1 {
			t.Errorf("MaxVF = %d, want 1 (true recurrence)", r.MaxVF)
		}
	})
	t.Run("distance inside trip stays clamped", func(t *testing.T) {
		_, withFacts := lowerLoop(t, `
int a[256];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i + 4] = a[i] + 1;
    }
}
`)
		if r := Analyze(withFacts); r.MaxVF != 4 {
			t.Errorf("MaxVF = %d, want 4 (distance 4 < trip)", r.MaxVF)
		}
	})
	t.Run("symbolic bound gets no proof", func(t *testing.T) {
		plain, withFacts := lowerLoop(t, `
int a[256];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i + 64] = a[0] * 2;
    }
}
`)
		if withFacts.ProvenTrip != 0 {
			t.Fatalf("ProvenTrip = %d for symbolic bound, want 0", withFacts.ProvenTrip)
		}
		if r := Analyze(withFacts); r.MaxVF != 1 {
			t.Errorf("MaxVF = %d, want 1 (no proof, conservative)", r.MaxVF)
		}
		if r := Analyze(plain); r.MaxVF != 1 {
			t.Errorf("plain MaxVF = %d, want 1", r.MaxVF)
		}
	})
}

// TestFactsRespectOuterLoopVariance: the range proofs assume the address
// difference is outer-iteration invariant; accesses whose outer strides
// differ must stay rejected even with a proven inner trip.
func TestFactsRespectOuterLoopVariance(t *testing.T) {
	src := `
int a[4096];
void f() {
    for (int j = 0; j < 8; j++) {
        for (int i = 0; i < 16; i++) {
            a[64 * j + i + 16] = a[i] + 1;
        }
    }
}
`
	_, withFacts := lowerLoop(t, src)
	if withFacts.ProvenTrip != 16 {
		t.Fatalf("inner ProvenTrip = %d, want 16", withFacts.ProvenTrip)
	}
	// The store advances by 64 per outer iteration, the load not at all, so
	// their address difference is not outer-invariant and every offset-based
	// proof (including the trip-window shortcut) is off the table. The only
	// sound verdict from this analysis is the conservative rejection.
	r := Analyze(withFacts)
	if r.MaxVF != 1 {
		t.Errorf("MaxVF = %d (%s), want 1 (outer-variant pair)", r.MaxVF, r.Reason)
	}
}
