package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"neurovec/internal/dataset"
)

// raceSources returns a few distinct programs for concurrent-inference tests.
func raceSources(t *testing.T, n int) []string {
	t.Helper()
	set := dataset.Generate(dataset.GenConfig{N: n, Seed: 99})
	out := make([]string, 0, n)
	for _, s := range set.Samples {
		out = append(out, s.Source)
	}
	return out
}

// TestConcurrentInference hammers every stateless inference entry point from
// many goroutines at once (run under -race), Decide on compiles the workers
// share included, and checks that concurrent results are identical to the
// single-threaded ones.
func TestConcurrentInference(t *testing.T) {
	fw := smallFramework(t, 30)
	fw.Train(fastRL(4))
	srcs := raceSources(t, 4)

	// Single-threaded golden results. Every source is also compiled once;
	// the workers decide on those shared compiles.
	type golden struct {
		annotated string
		vec0      float64
		sweep00   float64
		decided   map[string]string
	}
	want := make([]golden, len(srcs))
	shared := make([]*Compiled, len(srcs))
	// Across workers and rounds, every source's shared compile is decided
	// by each policy, so the policies' evaluators read one prepared
	// simulation and one set of baseline plans at once.
	decidePolicies := []string{"rl", "brute", "costmodel"}
	decideJSON := func(c *Compiled, pol string) (string, error) {
		resp, err := fw.Decide(context.Background(), c, WithPolicyName(pol))
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(resp)
		return string(b), err
	}
	for i, src := range srcs {
		c, err := fw.Compile(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = c
		want[i].decided = map[string]string{}
		for _, pol := range decidePolicies {
			if want[i].decided[pol], err = decideJSON(c, pol); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := fw.PredictLoops(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := fw.SweepSource(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i].annotated, want[i].vec0, want[i].sweep00 = resp.Annotated, fw.Embedding(i)[0], sw.Speedup[0][0]
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(srcs)
				resp, err := fw.PredictLoops(context.Background(), srcs[i], nil)
				if err != nil {
					errs <- err
					return
				}
				if resp.Annotated != want[i].annotated {
					t.Errorf("worker %d: concurrent annotation differs for source %d", w, i)
					return
				}
				if vec := fw.Embedding(i); vec[0] != want[i].vec0 {
					t.Errorf("worker %d: concurrent embedding differs for unit %d", w, i)
					return
				}
				sw, err := fw.SweepSource(context.Background(), srcs[i], nil)
				if err != nil {
					errs <- err
					return
				}
				if sw.Speedup[0][0] != want[i].sweep00 {
					t.Errorf("worker %d: concurrent sweep differs for source %d", w, i)
					return
				}
				pol := decidePolicies[(w+r)%len(decidePolicies)]
				decided, err := decideJSON(shared[i], pol)
				if err != nil {
					errs <- err
					return
				}
				if decided != want[i].decided[pol] {
					t.Errorf("worker %d: concurrent %s decision on a shared compile differs for source %d", w, pol, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPredictLoopsMatchesUnitPath checks the stateless policy path against
// the legacy unit-indexed one: loading the same program as units and calling
// Predict must give the decisions PredictLoops computes.
func TestPredictLoopsMatchesUnitPath(t *testing.T) {
	fw := smallFramework(t, 30)
	fw.Train(fastRL(4))
	src := raceSources(t, 1)[0]

	resp, err := fw.PredictLoops(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := fw.NumSamples()
	if err := fw.LoadSource("probe", src, nil); err != nil {
		t.Fatal(err)
	}
	for i, d := range resp.Loops {
		vf, ifc, err := fw.Predict(start + i)
		if err != nil {
			t.Fatal(err)
		}
		if vf != d.VF || ifc != d.IF {
			t.Fatalf("loop %s: stateless path (%d,%d), unit path (%d,%d)",
				d.Label, d.VF, d.IF, vf, ifc)
		}
	}
}

// TestPredictLoopsSpeedups sanity-checks the simulated speedup fields.
func TestPredictLoopsSpeedups(t *testing.T) {
	fw := smallFramework(t, 30)
	fw.Train(fastRL(4))
	src := raceSources(t, 1)[0]
	resp, err := fw.PredictLoops(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.BaselineCycles <= 0 || resp.PredictedCycles <= 0 {
		t.Fatalf("non-positive cycles: baseline %v predicted %v",
			resp.BaselineCycles, resp.PredictedCycles)
	}
	if resp.Speedup <= 0 {
		t.Fatalf("non-positive speedup %v", resp.Speedup)
	}
	if len(resp.Loops) == 0 {
		t.Fatal("no loop decisions")
	}
	for _, d := range resp.Loops {
		if d.PredictedSpeedup <= 0 {
			t.Fatalf("loop %s: non-positive speedup %v", d.Label, d.PredictedSpeedup)
		}
	}
}

// TestModelVersionStamping checks that save/load stamp a stable fingerprint
// and that different weights fingerprint differently.
func TestModelVersionStamping(t *testing.T) {
	fw := smallFramework(t, 20)
	fw.Train(fastRL(2))
	if v := fw.ModelVersion(); v != "" {
		t.Fatalf("version %q before any save/load, want empty", v)
	}
	dir := t.TempDir()
	path := dir + "/m.gob"
	if err := fw.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	v1 := fw.ModelVersion()
	if v1 == "" {
		t.Fatal("empty version after save")
	}
	fw2 := New(DefaultConfig())
	if err := fw2.LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if v2 := fw2.ModelVersion(); v2 != v1 {
		t.Fatalf("loaded version %q, saved %q", v2, v1)
	}
	// More training produces different weights, hence a different stamp.
	fw.Agent().TrainIterations(fw, 2)
	fw.Retrained()
	if err := fw.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if fw.ModelVersion() == v1 {
		t.Fatal("version unchanged after retraining")
	}
}

// TestUnitGridsFirstUseRace has 8 goroutines call Reward, CompileBlowup and
// BruteForceLabel on the units of a freshly loaded framework, so the first
// use of each unit's action grid races (run under -race), and checks every
// answer against a serial pass over a second framework loaded alike.
func TestUnitGridsFirstUseRace(t *testing.T) {
	type answer struct {
		reward, blowup float64
		vf, ifc        int
	}
	ask := func(fw *Framework, i int) answer {
		a := answer{reward: fw.Reward(i, 64, 16), blowup: fw.CompileBlowup(i, 8, 2)}
		a.vf, a.ifc = fw.BruteForceLabel(i)
		return a
	}
	serial := smallFramework(t, 12)
	want := make([]answer, serial.NumSamples())
	for i := range want {
		want[i] = ask(serial, i)
	}

	fw := smallFramework(t, 12)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range want {
				i := (w + k) % len(want)
				if got := ask(fw, i); got != want[i] {
					t.Errorf("worker %d, unit %d: concurrent %+v, serial %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
