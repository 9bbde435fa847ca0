package code2vec

import (
	"math"
	"testing"
)

const squareSrc = `
float x[256];
void g() {
    for (int i = 0; i < 256; i++) {
        x[i] = x[i] * x[i];
    }
}
`

// TestForwardIntoParity pins reuse: ForwardInto through one Scratch that
// already held other bags is bit-identical to the plain per-context loop.
func TestForwardIntoParity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutDim = 48
	cfg.EmbedDim = 12
	m := NewModel(cfg)
	var s Scratch
	dst := make([]float64, cfg.OutDim)
	for _, src := range []string{copySrc, squareSrc, copySrc} {
		ctxs := ExtractContexts(loopStmt(t, src), cfg)
		want, _, _ := referenceForward(m, ctxs)
		got := m.ForwardInto(dst, ctxs, &s)
		for o := range want {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%q out[%d] = %g, want %g (must be bit-identical)", src[:20], o, got[o], want[o])
			}
		}
	}
	// Empty bag: the zero vector.
	got := m.ForwardInto(dst, nil, &s)
	for o, v := range got {
		if v != 0 {
			t.Fatalf("empty bag out[%d] = %g, want 0", o, v)
		}
	}
}

// TestForwardIntoZeroAllocs checks the zero-alloc contract at a toy shape
// and at the production shape (340 outputs, EmbedDim 32) on a full
// 120-context bag, after the Scratch has grown on the largest bag.
func TestForwardIntoZeroAllocs(t *testing.T) {
	toy := DefaultConfig()
	toy.OutDim = 48
	toy.EmbedDim = 12
	for _, cfg := range []Config{toy, DefaultConfig()} {
		m := NewModel(cfg)
		big := ExtractContexts(loopStmt(t, matmulSrc), cfg)
		small := ExtractContexts(loopStmt(t, copySrc), cfg)
		var s Scratch
		dst := make([]float64, cfg.OutDim)
		m.ForwardInto(dst, big, &s) // grow buffers
		for _, ctxs := range [][]Context{big, small} {
			if allocs := testing.AllocsPerRun(20, func() { m.ForwardInto(dst, ctxs, &s) }); allocs != 0 {
				t.Fatalf("%d/%d: ForwardInto allocates %v per run on %d contexts, want 0",
					cfg.OutDim, cfg.EmbedDim, allocs, len(ctxs))
			}
		}
	}
}

// TestExtractorMatchesExtractContexts proves buffer recycling changes no
// extraction result, including under the downsampling budget and across
// back-to-back snippets reusing the same arena.
func TestExtractorMatchesExtractContexts(t *testing.T) {
	for _, budget := range []int{120, 10} {
		cfg := DefaultConfig()
		cfg.MaxContexts = budget
		var e Extractor
		for _, src := range []string{copySrc, squareSrc, copySrc} {
			s := loopStmt(t, src)
			want := ExtractContexts(s, cfg)
			got := e.Extract(s, cfg)
			if len(got) != len(want) {
				t.Fatalf("budget %d: %d contexts, want %d", budget, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("budget %d: context %d = %v, want %v", budget, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExtractorReusesBuffers asserts steady-state extraction stops growing
// its backing arrays (the allocs that remain are per-call hashing, not
// per-leaf copies).
func TestExtractorReusesBuffers(t *testing.T) {
	cfg := DefaultConfig()
	s := loopStmt(t, copySrc)
	var e Extractor
	e.Extract(s, cfg)
	c1, a1, p1 := cap(e.ctxs), cap(e.col.arena), cap(e.path)
	for i := 0; i < 5; i++ {
		e.Extract(s, cfg)
	}
	if cap(e.ctxs) != c1 || cap(e.col.arena) != a1 || cap(e.path) != p1 {
		t.Fatalf("buffers regrew: ctxs %d->%d arena %d->%d path %d->%d",
			c1, cap(e.ctxs), a1, cap(e.col.arena), p1, cap(e.path))
	}
}

func TestHashBytesModMatchesHashMod(t *testing.T) {
	for _, s := range []string{"", "For^Block_Assign:=", "a", "Index^For^Block"} {
		if hashBytesMod([]byte(s), 4096) != hashMod(s, 4096) {
			t.Fatalf("hashBytesMod(%q) != hashMod(%q)", s, s)
		}
	}
}

// TestPathBetweenArena sanity-checks the arena-backed leaf stacks feeding
// appendPathBetween.
func TestPathBetweenArena(t *testing.T) {
	leaves, arena := collectLeaves(loopStmt(t, copySrc))
	if len(leaves) < 2 {
		t.Fatal("too few leaves")
	}
	a := arena[leaves[0].lo:leaves[0].hi]
	b := arena[leaves[1].lo:leaves[1].hi]
	if len(a) == 0 || a[0] != "For" || b[0] != "For" {
		t.Fatalf("leaf stacks do not start at the loop root: %v / %v", a, b)
	}
	path, ok := pathBetween(a, b, DefaultConfig().MaxPathLen)
	if !ok || path == "" {
		t.Fatalf("no path between first two leaves (%v, %v)", a, b)
	}
}
