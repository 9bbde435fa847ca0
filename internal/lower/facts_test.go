package lower

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
)

// factsCases are programs whose constants or loop form once lowered
// differently from what semantic analysis proved: each pins the trip count,
// proof and access offsets of one loop.
var factsCases = []struct {
	name, src, loop string
	tripKnown       bool
	trip, proven    int64
	// accesses lists each access of the loop as "kind array offset", with
	// "?" for an offset that is not an exact constant.
	accesses []string
}{
	{
		name: "increment before loop",
		src: `int a[256];
void f() {
    int n = 64;
    n++;
    for (int i = 0; i < n; i++) { a[i] = 0; }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "decrement before loop",
		src: `int a[256];
void f() {
    int n = 64;
    n--;
    for (int i = 0; i < n; i++) { a[i] = 0; }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "increment before offset",
		src: `int a[256];
void f() {
    int k = 0;
    k++;
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "shadowed offset",
		src: `int a[256];
int k = 1;
void f() {
    { int k = 0; a[k] = 0; }
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a 1"},
	},
	{
		name: "shadowed bound",
		src: `int a[256];
int n = 100;
void f() {
    { int n = 8; a[n] = 0; }
    for (int i = 0; i < n; i++) { a[i] = 0; }
}`,
		loop: "L0", tripKnown: true, trip: 100, proven: 100, accesses: []string{"store a 0"},
	},
	{
		name: "comparison in bound",
		src: `int a[256];
void f() {
    for (int i = 0; i < 64 * (2 > 1); i++) { a[i] = 0; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64, accesses: []string{"store a 0"},
	},
	{
		name: "logical not in bound",
		src: `int a[256];
void f() {
    for (int i = 0; i < 64 * !0; i++) { a[i] = 0; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64, accesses: []string{"store a 0"},
	},
	{
		name: "oversized shift in bound",
		src: `int a[256];
void f() {
    for (int i = 0; i < (1 << 66); i++) { a[i] = 0; }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "offset assigned in body",
		src: `int a[256];
void f() {
    int k = 0;
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; k = 1; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "bound assigned in outer body",
		src: `int a[256];
void f() {
    int n = 64;
    for (int j = 0; j < 4; j++) {
        for (int i = 0; i < n; i++) { a[i] = j; }
        n = 8;
    }
}`,
		loop: "L1", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "offset assigned in then, read in else",
		src: `int a[256];
void f(int c) {
    int k = 1;
    if (c) { k = 0; } else {
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
    }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "bound assigned in then, read in else",
		src: `int a[256];
void f(int c) {
    int n = 100;
    if (c) { n = 8; } else {
        for (int i = 0; i < n; i++) { a[i] = 0; }
    }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "offset assigned in a branch, read after the if",
		src: `int a[256];
void f(int c) {
    int k = 0;
    if (c) { a[0] = 0; } else { k = 1; }
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "offset assigned in a switch arm, read after the switch",
		src: `int a[256];
void f(int c) {
    int k = 0;
    switch (c) {
    case 0: k = 1; break;
    default: a[0] = 0;
    }
    for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "offset assigned in an earlier switch arm",
		src: `int a[256];
void f(int c) {
    int k = 1;
    switch (c) {
    case 0: k = 0; break;
    default:
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
    }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "offset assigned in a switch arm fallen through",
		src: `int a[256];
void f(int c) {
    int k = 1;
    switch (c) {
    case 0: k = 0;
    case 1:
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
    }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a ?"},
	},
	{
		name: "offset assigned in a later switch arm",
		src: `int a[256];
void f(int c) {
    int k = 1;
    switch (c) {
    case 0:
        for (int i = 0; i < 64; i++) { a[i + k] = a[i] * 2; }
        break;
    default: k = 0;
    }
}`,
		loop: "L0", tripKnown: true, trip: 64, proven: 64,
		accesses: []string{"load a 0", "store a 1"},
	},
	{
		name: "global assigned by another function",
		src: `int a[256];
int n = 64;
void g() { n = 8; }
void f() {
    for (int i = 0; i < n; i++) { a[i] = 0; }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
	{
		name: "global reassigned by a call",
		src: `int a[256];
int n;
void g() { n = 9; }
void f() {
    n = 8;
    g();
    for (int i = 0; i < n; i++) { a[i] = 0; }
}`,
		loop: "L0", trip: 256, accesses: []string{"store a 0"},
	},
}

// TestLowerReadsSemaFacts lowers each case with its sema facts, the way the
// compile path does.
func TestLowerReadsSemaFacts(t *testing.T) {
	for _, tc := range factsCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := lang.ParseFile("facts.c", tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			opts := DefaultOptions()
			opts.Facts = sema.Check("facts.c", prog).Facts
			p, err := Program(prog, opts)
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			l := p.FindLoop(tc.loop)
			if l == nil {
				t.Fatalf("no loop %s", tc.loop)
			}
			if l.TripKnown != tc.tripKnown || l.Trip != tc.trip || l.ProvenTrip != tc.proven {
				t.Errorf("TripKnown=%v Trip=%d ProvenTrip=%d, want %v %d %d",
					l.TripKnown, l.Trip, l.ProvenTrip, tc.tripKnown, tc.trip, tc.proven)
			}
			var got []string
			for _, a := range l.Accesses {
				off := "?"
				if a.ExactOffset {
					off = fmt.Sprint(a.Offset)
				}
				got = append(got, fmt.Sprintf("%s %s %s", a.Kind, a.Array, off))
			}
			if strings.Join(got, ", ") != strings.Join(tc.accesses, ", ") {
				t.Errorf("accesses = %q, want %q", got, tc.accesses)
			}
		})
	}
}

// FuzzLowerNoPanic holds sema and lowering to never panicking on parseable
// input, and the IR to the invariant every consumer of ProvenTrip relies on:
// a proven trip is the loop's known trip count.
func FuzzLowerNoPanic(f *testing.F) {
	data, err := os.ReadFile("../lang/sema/testdata/fuzz_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			f.Add(line)
		}
	}
	for _, tc := range factsCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Skip()
		}
		opts := DefaultOptions()
		opts.Facts = sema.Check("fuzz.c", prog).Facts
		p, err := Program(prog, opts)
		if err != nil {
			return
		}
		for _, fn := range p.Funcs {
			for _, root := range fn.Loops {
				root.Walk(func(l *ir.Loop) {
					if l.ProvenTrip > 0 && (!l.TripKnown || l.Trip != l.ProvenTrip) {
						t.Errorf("loop %s: ProvenTrip %d but TripKnown=%v Trip=%d",
							l.Label, l.ProvenTrip, l.TripKnown, l.Trip)
					}
				})
			}
		}
	})
}
