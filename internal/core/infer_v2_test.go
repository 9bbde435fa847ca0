package core

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/lang"
	"neurovec/internal/nn"
	"neurovec/internal/policy"
	"neurovec/internal/rl"
)

// The v2 inference tests cover the loop-granular entrypoint: stable LoopIDs
// in responses, per-loop pins, and the per-loop decision/embedding caches.

const twoLoopSrc = `
float a[64];
float b[64];
void f() {
    for (int i = 0; i < 64; i++) {
        a[i] = a[i] * 2;
    }
    for (int j = 0; j < 64; j++) {
        b[j] = b[j] + 1;
    }
}
`

// versionedFramework returns a framework with a fingerprinted (untrained)
// checkpoint, which is what arms the per-loop caches.
func versionedFramework(t *testing.T) *Framework {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Embed.OutDim = 48
	cfg.Embed.EmbedDim = 12
	cfg.Embed.MaxContexts = 40
	fw := New(cfg)
	fw.InitAgent(nil)
	if err := fw.SaveModel(io.Discard); err != nil {
		t.Fatal(err)
	}
	if fw.ModelVersion() == "" {
		t.Fatal("SaveModel did not stamp a model version")
	}
	return fw
}

func sourceIDs(t *testing.T, src string) map[string]api.LoopID {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return api.LoopIDs(prog)
}

func TestPredictLoopsCarriesStableIDs(t *testing.T) {
	fw := New(DefaultConfig())
	resp, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil, WithPolicyName("costmodel"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != api.Version {
		t.Errorf("response version = %d, want %d", resp.Version, api.Version)
	}
	ids := sourceIDs(t, twoLoopSrc)
	if len(resp.Loops) != len(ids) {
		t.Fatalf("got %d decisions, want %d", len(resp.Loops), len(ids))
	}
	for _, d := range resp.Loops {
		if d.Loop != ids[d.Label] {
			t.Errorf("loop %s: id %s, want %s", d.Label, d.Loop, ids[d.Label])
		}
		if d.Provenance.Origin != api.OriginPolicy || d.Provenance.Policy != "costmodel" {
			t.Errorf("loop %s: provenance %+v, want policy costmodel", d.Label, d.Provenance)
		}
	}
}

func TestPredictLoopsHonorsPins(t *testing.T) {
	fw := New(DefaultConfig())
	ids := sourceIDs(t, twoLoopSrc)
	resp, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil,
		WithPolicyName("costmodel"),
		WithPins([]api.Pin{{Loop: ids["L0"], VF: 4, IF: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	var pinnedSeen bool
	for _, d := range resp.Loops {
		switch d.Label {
		case "L0":
			pinnedSeen = true
			if d.VF != 4 || d.IF != 2 {
				t.Errorf("pinned loop decided (VF=%d, IF=%d), want (4, 2)", d.VF, d.IF)
			}
			if d.Provenance.Origin != api.OriginPin {
				t.Errorf("pinned loop origin %q, want %q", d.Provenance.Origin, api.OriginPin)
			}
		default:
			if d.Provenance.Origin != api.OriginPolicy {
				t.Errorf("unpinned loop %s origin %q, want %q", d.Label, d.Provenance.Origin, api.OriginPolicy)
			}
		}
	}
	if !pinnedSeen {
		t.Fatal("pinned loop missing from response")
	}
	if !strings.Contains(resp.Annotated, "vectorize_width(4) interleave_count(2)") {
		t.Errorf("annotated source does not carry the pinned pragma:\n%s", resp.Annotated)
	}
	// Pinning by label must behave identically.
	byLabel, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil,
		WithPolicyName("costmodel"),
		WithPins([]api.Pin{{Label: "L0", VF: 4, IF: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if byLabel.Loops[0].VF != 4 || byLabel.Loops[0].IF != 2 {
		t.Errorf("label-addressed pin not honored: %+v", byLabel.Loops[0])
	}
}

func TestPredictLoopsRejectsBadPins(t *testing.T) {
	fw := New(DefaultConfig())
	for name, pins := range map[string][]api.Pin{
		"unknown id":    {{Loop: "deadbeefdeadbeef", VF: 4, IF: 2}},
		"unknown label": {{Label: "L9", VF: 4, IF: 2}},
		"vf off-space":  {{Label: "L0", VF: 3, IF: 2}},
		"if off-space":  {{Label: "L0", VF: 4, IF: 5}},
		"duplicate": {
			{Label: "L0", VF: 4, IF: 2},
			{Label: "L0", VF: 2, IF: 2},
		},
	} {
		_, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil,
			WithPolicyName("costmodel"), WithPins(pins))
		if !errorsIsBadPin(err) {
			t.Errorf("%s: error = %v, want ErrBadPin", name, err)
		}
	}
}

func errorsIsBadPin(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrBadPin {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// countingCache is a LoopCache that records traffic.
type countingCache struct {
	mu                 sync.Mutex
	decisions          map[string][2]int
	embeds             map[string][]float64
	decHits, decMisses int
	embHits, embMisses int
	decPuts, embPuts   int
}

func newCountingCache() *countingCache {
	return &countingCache{decisions: map[string][2]int{}, embeds: map[string][]float64{}}
}

func (c *countingCache) GetDecision(key string) (int, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[key]
	if ok {
		c.decHits++
	} else {
		c.decMisses++
	}
	return d[0], d[1], ok
}

func (c *countingCache) PutDecision(key string, vf, ifc int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decPuts++
	c.decisions[key] = [2]int{vf, ifc}
}

func (c *countingCache) GetEmbed(key string) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.embeds[key]
	if ok {
		c.embHits++
	} else {
		c.embMisses++
	}
	return v, ok
}

func (c *countingCache) PutEmbed(key string, vec []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.embPuts++
	c.embeds[key] = vec
}

func TestPredictLoopsDecisionCacheServesLoopPurePolicies(t *testing.T) {
	fw := versionedFramework(t)
	cache := newCountingCache()
	ctx := context.Background()

	first, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("rl"), WithLoopCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if cache.decPuts != 2 {
		t.Errorf("first call cached %d decisions, want 2", cache.decPuts)
	}
	if cache.embPuts != 2 {
		t.Errorf("first call cached %d embeddings, want 2", cache.embPuts)
	}

	// A whitespace/comment edit keeps LoopIDs stable, so the cache must hit
	// even though the source bytes changed.
	edited := "// reformatted\n" + strings.ReplaceAll(twoLoopSrc, "    ", "  ")
	second, err := fw.PredictLoops(ctx, edited, nil, WithPolicyName("rl"), WithLoopCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if cache.decHits != 2 {
		t.Errorf("second call hit the decision cache %d times, want 2", cache.decHits)
	}
	if cache.decPuts != 2 {
		t.Errorf("second call re-cached decisions (%d puts)", cache.decPuts)
	}
	for i := range first.Loops {
		f, s := first.Loops[i], second.Loops[i]
		if f.Loop != s.Loop || f.VF != s.VF || f.IF != s.IF {
			t.Errorf("loop %d: cached decision differs: %+v vs %+v", i, f, s)
		}
	}
}

func TestPredictLoopsCacheIgnoredForContextDependentPolicies(t *testing.T) {
	fw := versionedFramework(t)
	cache := newCountingCache()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("costmodel"), WithLoopCache(cache)); err != nil {
			t.Fatal(err)
		}
	}
	// costmodel decides from the lowered program, not the loop alone, so its
	// decisions must never be memoized per loop.
	if cache.decPuts != 0 || cache.decHits != 0 {
		t.Errorf("context-dependent policy used the decision cache (puts=%d hits=%d)", cache.decPuts, cache.decHits)
	}
}

func TestPredictLoopsCacheRequiresModelVersion(t *testing.T) {
	fw := New(DefaultConfig()) // no checkpoint: ModelVersion is empty
	cache := newCountingCache()
	if _, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil,
		WithPolicyName("costmodel"), WithLoopCache(cache)); err != nil {
		t.Fatal(err)
	}
	if cache.embPuts != 0 || cache.decPuts != 0 {
		t.Errorf("unversioned framework populated the loop cache (emb=%d dec=%d)", cache.embPuts, cache.decPuts)
	}
}

func TestEmbeddingIntoParityAndAllocs(t *testing.T) {
	fw, _ := productionFramework(t)
	want := fw.Embedding(0)
	dst := make([]float64, len(want))
	got := fw.EmbeddingInto(dst, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EmbeddingInto[%d] = %g, want %g (must be bit-identical)", i, got[i], want[i])
		}
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	fw.EmbeddingInto(dst, 0) // settle the pool
	if allocs := testing.AllocsPerRun(100, func() { fw.EmbeddingInto(dst, 0) }); allocs != 0 {
		t.Fatalf("EmbeddingInto allocates %v per run, want 0", allocs)
	}
}

// narrowEmbedder reports a different width than the vectors the core embed
// path produces — the embed-config skew of a malformed deployment.
type narrowEmbedder struct{ dim int }

func (e *narrowEmbedder) NewScratch() any              { return nil }
func (e *narrowEmbedder) Embed(any, int) []float64     { return make([]float64, e.dim) }
func (e *narrowEmbedder) Backward(any, int, []float64) {}
func (e *narrowEmbedder) Params() []*nn.Param          { return nil }
func (e *narrowEmbedder) Dim() int                     { return e.dim }

// TestShapeMismatchSurfacesTypedError drives a real shape-skewed model
// through PredictLoops and asserts the nn panic comes back as ErrModelShape
// instead of crashing the caller.
func TestShapeMismatchSurfacesTypedError(t *testing.T) {
	fw := versionedFramework(t)
	// Agent trained against a 16-wide embedder; the framework's code2vec
	// model emits 48-wide vectors. The rl policy will feed 48 into a trunk
	// expecting 16.
	fw.agent = rl.NewAgent(&narrowEmbedder{dim: 16}, fw.normalizeRL(nil))
	fw.invalidatePolicies()
	_, err := fw.PredictLoops(context.Background(), twoLoopSrc, nil, WithPolicyName("rl"))
	if err == nil {
		t.Fatal("shape-skewed model did not error")
	}
	if !errors.Is(err, ErrModelShape) {
		t.Fatalf("error %v does not wrap ErrModelShape", err)
	}
}

// panicPolicy raises an arbitrary (non-shape) panic from Decide.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panic" }
func (panicPolicy) Decide(context.Context, *policy.Request) (*policy.Decision, error) {
	panic("unrelated bug")
}

// TestSafeDecideOnlyCatchesShapeErrors pins the recover's scope: arbitrary
// panics must propagate (the pool-level recover owns those), only the typed
// shape panic is translated here.
func TestSafeDecideOnlyCatchesShapeErrors(t *testing.T) {
	fw := versionedFramework(t)
	defer func() {
		if recover() == nil {
			t.Fatal("non-shape panic was swallowed")
		}
	}()
	fw.PredictLoops(context.Background(), twoLoopSrc, nil, WithPolicy(panicPolicy{}))
}
