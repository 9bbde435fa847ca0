package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/dataset"
)

// TestCompileAllocCeiling guards the heap allocations of one POST
// /v2/compile through ServeHTTP (httptest request and recorder included) at
// the production shape: core.DefaultConfig with untrained weights, four
// generated sources, the default rl policy. Uncached is a server without
// response or loop caches; cached repeats sources the response LRU holds.
// Each ceiling is today's allocs/op, so one extra allocation per request
// fails it. Run with `go test -run Alloc ./...`.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fw := core.New(core.DefaultConfig())
	fw.InitAgent(nil)
	model := filepath.Join(t.TempDir(), "model.gob")
	if err := fw.SaveModelFile(model); err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, s := range dataset.Generate(dataset.GenConfig{N: 4, Seed: 7}).Samples {
		data, err := json.Marshal(api.CompileRequest{Source: s.Source})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(data))
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling int
	}{
		{"uncached", Config{ModelPath: model, CacheEntries: -1, LoopCacheEntries: -1}, 339},
		{"cached", Config{ModelPath: model}, 56},
	} {
		s := newTestServer(t, tc.cfg)
		// AllocsPerRun's warm-up round fills the cached server's LRU.
		perRound := testing.AllocsPerRun(10, func() {
			for _, body := range bodies {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/compile", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					panic(rec.Body.String())
				}
			}
		})
		if got := int(perRound) / len(bodies); got > tc.ceiling {
			t.Errorf("%s /v2/compile allocates %d per request, ceiling %d", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %d", tc.name, got)
		}
	}
}
