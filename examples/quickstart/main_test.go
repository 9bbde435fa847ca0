package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickstart runs the example end to end — in-process training, then
// inference on a new file — and checks that it prints a decision line for
// the saxpy loop.
func TestQuickstart(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout

	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^loop \S+: vectorize_width\(\d+\) interleave_count\(\d+\)$`).Match(got) {
		t.Fatalf("no vectorize_width line in quickstart output:\n%s", got)
	}
}
