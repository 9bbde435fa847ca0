package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/lang"
)

// TestMain lets the test binary serve as the calibration child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		probeMain()
		return
	}
	os.Exit(m.Run())
}

// testConfig runs a workload for about 300 ms on a tiny fixture: the
// production model shape, trained for one short iteration.
func testConfig(t *testing.T, workload, dir string) config {
	t.Helper()
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.dir = dir
	cfg.window = 300 * time.Millisecond
	cfg.fixture = fixtureSpec{GenN: 20, Iters: 1, Batch: 20}
	cfg.setups = 1
	cfg.warm = map[string]int{coldSingle: 4, editRepeat: 16, fleetBatch: 1, corpusEval: 1}
	cfg.sample = map[string]int{coldSingle: 8, editRepeat: 8, fleetBatch: 1, corpusEval: 1}
	cfg.ndjson = 2
	return cfg
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t, w, dir)
			cfg.trace = traced
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "spans", w+"-seed1.json")); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w, err)
		}
	}
}

// firstInputs renders the first n inputs of every stream a seed defines.
func firstInputs(t *testing.T, seed int64, n int) []input {
	t.Helper()
	var out []input
	cold, err := newColdStream(seed, "cold")
	if err != nil {
		t.Fatal(err)
	}
	edits, err := newEditStream(seed, "edit")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		c, err := cold.at(k)
		if err != nil {
			t.Fatal(err)
		}
		e, err := edits.at(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c, e)
	}
	fleet, err := newColdStream(seed, "fleet")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.batch(1)
	if err != nil {
		t.Fatal(err)
	}
	_, corpus, err := corpusInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(out, b...), corpus...)
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := firstInputs(t, 7, 64), firstInputs(t, 7, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, firstInputs(t, 8, 64)) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func loopIDs(t *testing.T, in input) map[string]api.LoopID {
	t.Helper()
	prog, err := lang.ParseFile(in.File, in.Source)
	if err != nil {
		t.Fatalf("%s: %v", in.File, err)
	}
	return api.LoopIDs(prog)
}

func TestEditsKeepLoopIDsAndRenamesChangeThem(t *testing.T) {
	edits, err := newEditStream(3, "edit")
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]input{}
	for _, in := range edits.set {
		base[in.File] = in
	}
	edited := 0
	for k := 0; k < 300; k++ {
		in, err := edits.at(k)
		if err != nil {
			t.Fatal(err)
		}
		orig := base[in.File]
		if in.Source != orig.Source {
			edited++
		}
		if !reflect.DeepEqual(loopIDs(t, in), loopIDs(t, orig)) {
			t.Fatalf("edit %d of %s changed its LoopIDs", k, in.File)
		}
	}
	if edited < 100 || edited > 200 {
		t.Errorf("%d of 300 requests edited, want about half", edited)
	}

	cold, err := newColdStream(3, "cold")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 120; k++ {
		in, err := cold.at(k)
		if err != nil {
			t.Fatal(err)
		}
		ids := loopIDs(t, in)
		if len(ids) != in.Loops || in.Loops == 0 {
			t.Fatalf("%s: %d LoopIDs for %d loops", in.File, len(ids), in.Loops)
		}
		if orig, ok := base[in.Base]; ok && reflect.DeepEqual(ids, loopIDs(t, orig)) {
			t.Fatalf("renaming %s kept its LoopIDs", in.Base)
		}
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {500, 0.98, 10}, {100, 0.90, 10}, {10, 0.5, 5}, {1, 0.99, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// Half the sample counts measured on a 2-vCPU VM over a 30 s window:
	// single-file requests, envelopes, eval passes.
	atHalfSpeed := map[string]int{coldSingle: 20000, editRepeat: 300000, fleetBatch: 1100, corpusEval: 190}
	for w, n := range atHalfSpeed {
		if b := beyond(n, tailQuantile(w)); b < 10 {
			t.Errorf("%s: %d samples beyond p%g of %d", w, b, 100*tailQuantile(w), n)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// file [0,100): parse [10,30), loop [40,90) with extract [40,50) and
	// forward [45,80) overlapping it, and an out-of-range child clipped.
	spans := []span{
		{Name: "file", Parent: -1, Start: 0, End: 100},
		{Name: "lang.parse", Parent: 0, Start: 10, End: 30},
		{Name: "loop", Parent: 0, Start: 40, End: 90},
		{Name: "code2vec.extract", Parent: 2, Start: 40, End: 50},
		{Name: "code2vec.forward", Parent: 2, Start: 45, End: 80},
		{Name: "late", Parent: 2, Start: 85, End: 120},
	}
	want := []int64{30, 20, 5, 10, 35, 35}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareFlagsRegressionsAndExactMismatches(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		var b bytes.Buffer
		for _, r := range recs {
			if err := appendRecordTo(&b, r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := func(seed int64, fps, regret float64) record {
		return record{Workload: coldSingle, Seed: seed, Metrics: map[string]recordMetric{
			"files_per_s":   {Value: fps, Unit: "files/s"},
			"oracle_regret": {Value: regret, Unit: "ratio"},
		}}
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "files_per_s", "unit": "files/s", "better": "higher", "bound": 0.1},
		{"name": "oracle_regret", "unit": "ratio", "better": "lower", "bound": 0.01}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a", rec(1, 100, 0.1), rec(2, 102, 0.1), rec(3, 98, 0.1))
	for _, c := range []struct {
		name string
		b    []record
		ok   bool
	}{
		{"same", []record{rec(1, 101, 0.1), rec(2, 99, 0.1), rec(3, 100, 0.1)}, true},
		{"faster", []record{rec(1, 150, 0.1), rec(2, 151, 0.1), rec(3, 149, 0.1)}, true},
		{"slower", []record{rec(1, 80, 0.1), rec(2, 81, 0.1), rec(3, 79, 0.1)}, false},
		{"exact", []record{rec(1, 100, 0.1), rec(2, 100, 0.1), rec(3, 100, 0.1000001)}, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, spec, base, write(c.name, c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
	}
}
