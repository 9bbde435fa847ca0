package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"neurovec/internal/policy"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[[]byte](2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "3" {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache[[]byte](2)
	c.Put("a", []byte("1"))
	c.Put("a", []byte("2"))
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatalf("got %q, want refreshed value", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache[[]byte](-1)
	c.Put("a", []byte("1"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a value")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[[]byte](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%40)
				c.Put(k, []byte(k))
				if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("key %s holds %q", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}

// TestLoopCacheSharesVectors pins down that a LoopLRU hit hands out the
// stored vector itself, not a copy, and that serving from it leaves every
// cached vector bit-for-bit intact. Every consumer of a code vector (the rl
// Decider and the nns index's Predict) only reads its input.
func TestLoopCacheSharesVectors(t *testing.T) {
	fw := versionedFramework(t)
	cache := NewLoopCache(DefaultLoopCacheEntries)
	ctx := context.Background()
	first, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("rl"), WithLoopCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string][]uint64{}
	for _, d := range first.Loops {
		key := embedKey(fw.ModelVersion(), d.Loop)
		vec, ok := cache.GetEmbed(key)
		if !ok {
			t.Fatalf("loop %s: no cached vector", d.Label)
		}
		again, _ := cache.GetEmbed(key)
		if &vec[0] != &again[0] {
			t.Fatalf("loop %s: cache hit returned a copy", d.Label)
		}
		for _, v := range vec {
			snap[key] = append(snap[key], math.Float64bits(v))
		}
	}
	if len(snap) != len(first.Loops) || len(snap) == 0 {
		t.Fatalf("cached %d vectors for %d loops", len(snap), len(first.Loops))
	}

	// rl hits the decision cache; a policy that is not loop-pure but
	// decides from the embedding reads every cached vector.
	decide, err := fw.Decider()
	if err != nil {
		t.Fatal(err)
	}
	fromVectors := policy.Func("rl-vectors", func(ctx context.Context, req *policy.Request) (*policy.Decision, error) {
		vf, ifc := decide(req.Embed())
		return &policy.Decision{VF: vf, IF: ifc}, nil
	})
	second, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("rl"), WithLoopCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	third, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicy(fromVectors), WithLoopCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("decision-cache hit changed the response:\n%+v\n%+v", first, second)
	}
	for i, d := range third.Loops {
		if d.VF != first.Loops[i].VF || d.IF != first.Loops[i].IF {
			t.Errorf("loop %s: decided %dx%d from the cached vector, rl decided %dx%d",
				d.Label, d.VF, d.IF, first.Loops[i].VF, first.Loops[i].IF)
		}
	}
	if n, _ := cache.Len(); n != len(first.Loops) {
		t.Errorf("decision cache holds %d entries, want %d", n, len(first.Loops))
	}
	for key, bits := range snap {
		vec, _ := cache.GetEmbed(key)
		for i, v := range vec {
			if math.Float64bits(v) != bits[i] {
				t.Fatalf("cached vector %q changed at %d", key, i)
			}
		}
	}
}
