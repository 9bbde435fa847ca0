package features

import (
	"testing"
	"testing/quick"

	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
)

func loopFor(t *testing.T, src string) *ir.Loop {
	t.Helper()
	return lower.MustProgram(lang.MustParse(src)).InnermostLoops()[0]
}

func TestVectorDimensions(t *testing.T) {
	l := loopFor(t, `
int a[256];
void f() {
    for (int i = 0; i < 256; i++) {
        a[i] = a[i] + 1;
    }
}
`)
	v := Vector(l)
	if len(v) != Dim {
		t.Fatalf("len = %d, want %d", len(v), Dim)
	}
	e := &Embedder{Loops: []*ir.Loop{l}}
	if e.Dim() != Dim {
		t.Fatal("Embedder.Dim mismatch")
	}
	if e.NewScratch() != nil {
		t.Fatal("features need no scratch")
	}
	got := e.Embed(nil, 0)
	if len(got) != Dim {
		t.Fatal("Embed wrong shape")
	}
	e.Backward(nil, 0, got) // must be a no-op
	if e.Params() != nil {
		t.Fatal("features must have no parameters")
	}
}

func TestFeatureSemantics(t *testing.T) {
	reduction := loopFor(t, `
float v[512];
float f() {
    float s = 0;
    for (int i = 0; i < 512; i++) {
        s += v[i] * v[i];
    }
    return s;
}
`)
	v := Vector(reduction)
	if v[14] != 1 {
		t.Error("reduction flag not set")
	}
	if v[15] != 1 {
		t.Error("float reduction flag not set")
	}

	gather := loopFor(t, `
int idx[256];
int d[4096];
int o[256];
void f() {
    for (int i = 0; i < 256; i++) {
        o[i] = d[idx[i]];
    }
}
`)
	g := Vector(gather)
	if g[13] <= 0 {
		t.Error("gather fraction zero for indirect access")
	}

	guarded := loopFor(t, `
int a[256];
void f() {
    for (int i = 0; i < 256; i++) {
        if (a[i] > 4) {
            a[i] = 0;
        }
    }
}
`)
	if Vector(guarded)[16] != 1 {
		t.Error("control-flow flag not set")
	}

	call := loopFor(t, `
int a[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = g(i);
    }
}
`)
	if Vector(call)[17] != 1 {
		t.Error("call flag not set")
	}
}

func TestFeaturesDistinguishLoops(t *testing.T) {
	a := Vector(loopFor(t, `
int x[64];
void f() {
    for (int i = 0; i < 64; i++) {
        x[i] = i;
    }
}
`))
	b := Vector(loopFor(t, `
double y[4096];
double g() {
    double s = 0;
    for (int i = 0; i < 4096; i++) {
        s += y[i] / 2.0;
    }
    return s;
}
`))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct loops have identical feature vectors")
	}
}

func TestFeaturesBoundedProperty(t *testing.T) {
	// All features lie in [0, 1] over the whole generated corpus.
	set := dataset.Generate(dataset.GenConfig{N: 150, Seed: 9})
	loops := make([]*ir.Loop, 0, len(set.Samples))
	for _, s := range set.Samples {
		p := lower.MustProgram(lang.MustParse(s.Source))
		loops = append(loops, p.InnermostLoops()...)
	}
	f := func(idx uint16) bool {
		l := loops[int(idx)%len(loops)]
		for _, v := range Vector(l) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
