package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

func encode(t *testing.T, params []*Param) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeParams(gob.NewEncoder(&buf), params); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func decode(buf *bytes.Buffer, params []*Param) error {
	return DecodeParams(gob.NewDecoder(buf), params)
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("net", 4, []int{8, 8}, rng)
	buf := encode(t, m.Params())
	m2 := NewMLP("net", 4, []int{8, 8}, rand.New(rand.NewSource(99)))
	if err := decode(buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, 0.4}
	y1, y2 := m.ApplyScratch(NewScratch(m), x), m2.ApplyScratch(NewScratch(m2), x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("restored network differs at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestSaveRejectsDuplicateNames(t *testing.T) {
	params := []*Param{NewParam("w", 2), NewParam("w", 3)}
	var buf bytes.Buffer
	if err := EncodeParams(gob.NewEncoder(&buf), params); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestLoadRejectsMissingParam(t *testing.T) {
	buf := encode(t, []*Param{NewParam("a", 2)})
	if err := decode(buf, []*Param{NewParam("a", 2), NewParam("b", 2)}); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestLoadRejectsUnknownParam(t *testing.T) {
	buf := encode(t, []*Param{NewParam("a", 2), NewParam("b", 2)})
	if err := decode(buf, []*Param{NewParam("a", 2)}); err == nil {
		t.Fatal("expected unknown-parameter error")
	}
}

func TestLoadRejectsLengthMismatch(t *testing.T) {
	buf := encode(t, []*Param{NewParam("a", 2)})
	if err := decode(buf, []*Param{NewParam("a", 3)}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}
