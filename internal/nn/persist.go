package nn

import (
	"encoding/gob"
	"fmt"
	"sort"
)

// paramBlob is one parameter's weights on the wire. Snapshots are encoded as
// a name-sorted slice rather than a map because gob serialises maps in
// runtime iteration order: a slice makes the encoded bytes a pure function
// of the weights, which is what lets training checkpoints be byte-compared
// across runs and worker counts.
type paramBlob struct {
	Name string
	W    []float64
}

// snapshot is the on-wire format: parameter blobs sorted by name.
type snapshot struct {
	Params []paramBlob
}

// EncodeParams writes the parameters' weights (not optimizer state) through
// enc, so a caller can put configuration and weights in one gob stream
// (mixing multiple encoders over one unbuffered reader corrupts decoding).
// Parameter names must be unique within the set. The output bytes are
// deterministic for a given weight set.
func EncodeParams(enc *gob.Encoder, params []*Param) error {
	s := snapshot{Params: make([]paramBlob, 0, len(params))}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		s.Params = append(s.Params, paramBlob{Name: p.Name, W: p.W})
	}
	sort.Slice(s.Params, func(i, j int) bool { return s.Params[i].Name < s.Params[j].Name })
	return enc.Encode(s)
}

// DecodeParams restores weights into params by name through dec; see
// EncodeParams. Every parameter must be present in the stream with a
// matching length; extra stream entries are an error too, so a config
// mismatch is caught loudly rather than silently producing a
// half-initialised model.
func DecodeParams(dec *gob.Decoder, params []*Param) error {
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("nn: decode snapshot: %w", err)
	}
	if len(s.Params) == 0 && len(params) > 0 {
		// gob drops fields the current struct no longer declares, so a
		// snapshot written in the old map-based wire format decodes as
		// empty. Name the real cause instead of a misleading
		// missing-parameter error.
		return fmt.Errorf("nn: snapshot has no parameters (written in an unsupported pre-deterministic format? re-save with `neurovec train -out`)")
	}
	byName := make(map[string][]float64, len(s.Params))
	for _, b := range s.Params {
		byName[b.Name] = b.W
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		w, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("nn: parameter %q has %d weights, snapshot has %d", p.Name, len(p.W), len(w))
		}
		copy(p.W, w)
		seen[p.Name] = true
	}
	for _, b := range s.Params {
		if !seen[b.Name] {
			return fmt.Errorf("nn: snapshot contains unknown parameter %q", b.Name)
		}
	}
	return nil
}

// momentBlob is one parameter's Adam moments on the wire.
type momentBlob struct {
	Name string
	M, V []float64
}

// adamState is the optimizer section of a training checkpoint: the step
// counter plus per-parameter first/second moments, name-sorted for
// deterministic encoding.
type adamState struct {
	T       int
	Moments []momentBlob
}

// EncodeAdamState writes the optimizer's step counter and every parameter's
// Adam moments through enc, so a training checkpoint can resume mid-run with
// bit-identical updates. Parameters that have never been stepped contribute
// zero moments.
func EncodeAdamState(enc *gob.Encoder, opt *Adam, params []*Param) error {
	s := adamState{T: opt.t, Moments: make([]momentBlob, 0, len(params))}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		m, v := p.m, p.v
		if m == nil {
			m = make([]float64, len(p.W))
			v = make([]float64, len(p.W))
		}
		s.Moments = append(s.Moments, momentBlob{Name: p.Name, M: m, V: v})
	}
	sort.Slice(s.Moments, func(i, j int) bool { return s.Moments[i].Name < s.Moments[j].Name })
	return enc.Encode(s)
}

// DecodeAdamState restores a counterpart of EncodeAdamState into opt and
// params. Like DecodeParams it is strict: every parameter must be present
// with matching lengths and unknown entries are an error.
func DecodeAdamState(dec *gob.Decoder, opt *Adam, params []*Param) error {
	var s adamState
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("nn: decode adam state: %w", err)
	}
	byName := make(map[string]momentBlob, len(s.Moments))
	for _, b := range s.Moments {
		byName[b.Name] = b
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		b, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: adam state missing parameter %q", p.Name)
		}
		if len(b.M) != len(p.W) || len(b.V) != len(p.W) {
			return fmt.Errorf("nn: adam moments for %q have %d/%d entries, want %d", p.Name, len(b.M), len(b.V), len(p.W))
		}
		p.m = append([]float64(nil), b.M...)
		p.v = append([]float64(nil), b.V...)
		seen[p.Name] = true
	}
	for _, b := range s.Moments {
		if !seen[b.Name] {
			return fmt.Errorf("nn: adam state contains unknown parameter %q", b.Name)
		}
	}
	opt.t = s.T
	return nil
}
