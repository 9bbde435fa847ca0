package evalharness

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden eval report")

// TestGoldenReport pins the eval report format and numbers for a tiny
// fixed-seed corpus plus the full tsvc suite (the extended-grammar kernels:
// calls, structs, switches, non-canonical loops). A diff here means either
// the report schema or the evaluation semantics changed — both must be
// deliberate. Regenerate with:
//
//	go test ./internal/evalharness -run TestGoldenReport -update
func TestGoldenReport(t *testing.T) {
	const seed = 7
	corpus, err := BuildCorpus("generated,tsvc", 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	fw := modelFree(t, seed)
	opts := Options{Policy: "random", Seed: seed, Jobs: 1}
	report, err := New(fw).Run(context.Background(), corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.WriteJSON(&got, false); err != nil {
		t.Fatal(err)
	}

	// The acceptance contract: sharding must not move a byte.
	opts.Jobs = 3
	report2, err := New(modelFree(t, seed)).Run(context.Background(), corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if err := report2.WriteJSON(&sharded, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), sharded.Bytes()) {
		t.Fatal("report bytes differ between jobs=1 and jobs=3")
	}

	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("eval report drifted from golden file %s.\nIf the change is deliberate, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got.Bytes(), want)
	}
}
