// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's models: fully-connected policy/value networks (the 64x64
// FCNN and the wider variants of the hyperparameter sweep), the code2vec
// attention encoder, categorical and Gaussian action heads, and the Adam
// optimizer. Everything is float64 and single-threaded; forward passes cache
// activations for the matching backward pass, so a network instance must not
// be shared between concurrent callers of Forward/Backward.
//
// For inference-only use, every layer also provides Apply: the same
// computation as Forward but without caching. Apply only reads parameter
// weights, so any number of goroutines may call it on a shared network as
// long as no concurrent training step mutates the weights.
//
// The serving hot path uses the destination-passing variants instead:
// Dense.ApplyTo, the activations' in-place ApplyTo, MLP.ApplyScratch with a
// caller-owned Scratch, and SoftmaxTo/LogSoftmaxTo. They compute exactly the
// same values as Apply (same floating-point operation order, so outputs are
// bit-identical) but perform zero heap allocations, which is what keeps a
// model-serving worker out of the garbage collector. Shape violations panic
// with a typed *ShapeError so a serving boundary can recover it into an
// error instead of crashing the process.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// ShapeError is the typed panic value raised by every length check in this
// package: a dense layer fed a vector of the wrong width, or a destination
// buffer of the wrong size. It implements error so a recover() at a serving
// boundary can surface it as a typed failure (a malformed checkpoint or an
// embed-config skew) for the one request instead of crashing the process.
type ShapeError struct {
	Op   string // the operation that tripped, e.g. "dense trunk.fc0.W input"
	Got  int
	Want int
}

// Error renders the mismatch.
func (e *ShapeError) Error() string {
	return fmt.Sprintf("nn: %s: length %d, want %d", e.Op, e.Got, e.Want)
}

// Param is a learnable tensor with its gradient accumulator and Adam state.
type Param struct {
	Name string
	W    []float64 // weights (row-major for matrices)
	G    []float64 // gradient accumulator
	m, v []float64 // Adam moments
}

// NewParam allocates a zero parameter of n elements.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n)}
}

// NewParamInit allocates a parameter initialised by fn(i).
func NewParamInit(name string, n int, fn func(i int) float64) *Param {
	p := NewParam(name, n)
	for i := range p.W {
		p.W[i] = fn(i)
	}
	return p
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Len returns the number of elements.
func (p *Param) Len() int { return len(p.W) }

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs; Backward accumulates parameter gradients and returns the
// gradient with respect to its input. Apply computes the same function as
// Forward without touching the cache (safe for concurrent inference).
type Layer interface {
	Forward(x []float64) []float64
	Apply(x []float64) []float64
	Backward(dy []float64) []float64
	Params() []*Param
}

// ---- Dense ----

// Dense is a fully-connected layer y = W x + b.
type Dense struct {
	In, Out int
	W, B    *Param
	x       []float64 // cached input
}

// NewDense creates a dense layer with Xavier/Glorot initialisation.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Dense{
		In: in, Out: out,
		W: NewParamInit(name+".W", in*out, func(int) float64 { return rng.NormFloat64() * scale }),
		B: NewParam(name+".b", out),
	}
}

// Forward computes W x + b, caching the input for Backward. The cache is an
// unaliased copy of x: callers are free to hand Forward a scratch-backed
// slice and recycle it immediately, and a later in-place activation can
// never corrupt the values Backward multiplies into the weight gradients.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(&ShapeError{Op: "dense " + d.W.Name + " input", Got: len(x), Want: d.In})
	}
	d.x = append(d.x[:0], x...)
	return d.Apply(x)
}

// Apply computes W x + b without caching; it only reads the weights, so it
// is safe for concurrent callers.
func (d *Dense) Apply(x []float64) []float64 {
	return d.ApplyTo(make([]float64, d.Out), x)
}

// ApplyTo computes W x + b into the caller-owned dst (len must be Out) and
// returns it. It allocates nothing and only reads the weights, so it is safe
// for concurrent callers each bringing their own dst. dst must not alias x.
//
// Each output is B[o] plus W[o][i]·x[i] summed in i order, one chain of
// adds per output. The outputs are swept four at a time, so four
// independent chains are in flight and each x load feeds four rows; a tail
// loop takes Out % 4. Every sum rounds exactly as a one-output-at-a-time
// loop would, so the result is the same bit for bit.
func (d *Dense) ApplyTo(dst, x []float64) []float64 {
	if len(x) != d.In {
		panic(&ShapeError{Op: "dense " + d.W.Name + " input", Got: len(x), Want: d.In})
	}
	if len(dst) != d.Out {
		panic(&ShapeError{Op: "dense " + d.W.Name + " dst", Got: len(dst), Want: d.Out})
	}
	if d.Out > 0 && d.In > 0 && &dst[0] == &x[0] {
		panic(&ShapeError{Op: "dense " + d.W.Name + " dst aliases input", Got: d.Out, Want: d.In})
	}
	in := len(x) // == d.In; slicing the rows to len(x) drops their bounds checks
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		w0 := d.W.W[o*in:][:in]
		w1 := d.W.W[(o+1)*in:][:in]
		w2 := d.W.W[(o+2)*in:][:in]
		w3 := d.W.W[(o+3)*in:][:in]
		s0, s1, s2, s3 := d.B.W[o], d.B.W[o+1], d.B.W[o+2], d.B.W[o+3]
		for i, xv := range x {
			s0 += w0[i] * xv
			s1 += w1[i] * xv
			s2 += w2[i] * xv
			s3 += w3[i] * xv
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W.W[o*in:][:in]
		s := d.B.W[o]
		for i, xv := range x {
			s += row[i] * xv
		}
		dst[o] = s
	}
	return dst
}

// Backward accumulates dW, db and returns dx.
func (d *Dense) Backward(dy []float64) []float64 {
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		if g == 0 {
			// Audited fast path: skipping the row elides `d.B.G[o] += 0` and
			// a row of `+= 0` weight-gradient accumulations — bit-identical
			// to the slow path (x+0 == x for every float64 x, including
			// ±Inf and NaN accumulators). A NaN g never takes this branch
			// (NaN == 0 is false), so poisoned gradients still propagate
			// loudly instead of being silently dropped.
			continue
		}
		row := d.W.W[o*d.In : (o+1)*d.In]
		grow := d.W.G[o*d.In : (o+1)*d.In]
		d.B.G[o] += g
		for i := range row {
			grow[i] += g * d.x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the layer's parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ---- Activations ----

// Tanh is an elementwise tanh layer.
type Tanh struct{ y []float64 }

// Forward applies tanh elementwise, caching the output for Backward.
func (t *Tanh) Forward(x []float64) []float64 {
	out := t.Apply(x)
	t.y = append(t.y[:0], out...)
	return out
}

// Apply applies tanh elementwise without caching (stateless).
func (t *Tanh) Apply(x []float64) []float64 {
	return t.ApplyTo(make([]float64, len(x)), x)
}

// ApplyTo applies tanh elementwise into dst (len must match x) and returns
// it. dst may alias x for an in-place squash; nothing is allocated.
func (t *Tanh) ApplyTo(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		panic(&ShapeError{Op: "tanh dst", Got: len(dst), Want: len(x)})
	}
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
	return dst
}

// Backward multiplies by 1 - tanh^2.
func (t *Tanh) Backward(dy []float64) []float64 {
	dx := make([]float64, len(dy))
	for i, g := range dy {
		dx[i] = g * (1 - t.y[i]*t.y[i])
	}
	return dx
}

// Params returns nil (no parameters).
func (t *Tanh) Params() []*Param { return nil }

// ReLU is an elementwise rectifier layer.
type ReLU struct{ mask []bool }

// Forward applies max(0, x), caching the sign mask for Backward.
func (r *ReLU) Forward(x []float64) []float64 {
	r.mask = make([]bool, len(x))
	out := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		}
	}
	return out
}

// Apply applies max(0, x) without caching (stateless).
func (r *ReLU) Apply(x []float64) []float64 {
	return r.ApplyTo(make([]float64, len(x)), x)
}

// ApplyTo applies max(0, x) elementwise into dst (len must match x) and
// returns it. dst may alias x for an in-place rectification; nothing is
// allocated.
func (r *ReLU) ApplyTo(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		panic(&ShapeError{Op: "relu dst", Got: len(dst), Want: len(x)})
	}
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(dy []float64) []float64 {
	dx := make([]float64, len(dy))
	for i, g := range dy {
		if r.mask[i] {
			dx[i] = g
		}
	}
	return dx
}

// Params returns nil (no parameters).
func (r *ReLU) Params() []*Param { return nil }

// ---- MLP ----

// MLP is a sequential stack of layers.
type MLP struct{ Layers []Layer }

// NewMLP builds a tanh MLP with the given hidden sizes (the paper's default
// is hidden = [64, 64]).
func NewMLP(name string, in int, hidden []int, rng *rand.Rand) *MLP {
	m := &MLP{}
	prev := in
	for i, h := range hidden {
		m.Layers = append(m.Layers,
			NewDense(fmt.Sprintf("%s.fc%d", name, i), prev, h, rng),
			&Tanh{})
		prev = h
	}
	return m
}

// OutDim returns the width of the final layer.
func (m *MLP) OutDim() int {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if d, ok := m.Layers[i].(*Dense); ok {
			return d.Out
		}
	}
	return 0
}

// Forward runs the stack.
func (m *MLP) Forward(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Apply runs the stack statelessly (read-only on every layer), so a trained
// MLP can serve concurrent inference callers.
func (m *MLP) Apply(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Apply(x)
	}
	return x
}

// Scratch is the caller-owned buffer pair MLP.ApplyScratch ping-pongs
// between. Size it once from the network with NewScratch (the buffers also
// grow on demand, so a Scratch survives a hot-reload to a wider model) and
// reuse it across calls — typically via a sync.Pool, one Scratch per
// in-flight request. A Scratch must not be shared by concurrent callers.
type Scratch struct {
	bufs [2][]float64
}

// NewScratch returns a Scratch pre-sized for every dense layer of m, so the
// first ApplyScratch call already allocates nothing.
func NewScratch(m *MLP) *Scratch {
	max := 0
	for _, l := range m.Layers {
		if d, ok := l.(*Dense); ok {
			if d.Out > max {
				max = d.Out
			}
			if d.In > max {
				max = d.In
			}
		}
	}
	s := &Scratch{}
	s.bufs[0] = make([]float64, max)
	s.bufs[1] = make([]float64, max)
	return s
}

// buf returns scratch buffer i resized to n, growing its backing array only
// when n exceeds the high-water mark.
func (s *Scratch) buf(i, n int) []float64 {
	if cap(s.bufs[i]) < n {
		s.bufs[i] = make([]float64, n)
	}
	return s.bufs[i][:n]
}

// owns reports whether v is backed by one of the scratch buffers.
func (s *Scratch) owns(v []float64) bool {
	if len(v) == 0 {
		return false
	}
	for i := range s.bufs {
		if len(s.bufs[i]) > 0 && &v[0] == &s.bufs[i][0] {
			return true
		}
	}
	return false
}

// ApplyScratch runs the stack like Apply but with zero heap allocations:
// dense layers write into the scratch's alternating buffers and activations
// squash in place. The result is bit-identical to Apply (same operation
// order) and remains valid only until the next ApplyScratch call on s; the
// caller's x is never written to. Layers other than Dense/Tanh/ReLU fall
// back to their allocating Apply.
func (m *MLP) ApplyScratch(s *Scratch, x []float64) []float64 {
	cur := x
	idx := 0
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Dense:
			dst := s.buf(idx, t.Out)
			if len(cur) > 0 && len(dst) > 0 && &dst[0] == &cur[0] {
				idx ^= 1
				dst = s.buf(idx, t.Out)
			}
			cur = t.ApplyTo(dst, cur)
			idx ^= 1
		case *Tanh:
			cur = t.ApplyTo(s.inPlace(&idx, cur), cur)
		case *ReLU:
			cur = t.ApplyTo(s.inPlace(&idx, cur), cur)
		default:
			cur = l.Apply(cur)
		}
	}
	return cur
}

// inPlace returns a destination for an elementwise layer: cur itself when it
// already lives in scratch, otherwise a scratch copy target — so the
// caller's input slice is never mutated.
func (s *Scratch) inPlace(idx *int, cur []float64) []float64 {
	if s.owns(cur) {
		return cur
	}
	dst := s.buf(*idx, len(cur))
	*idx ^= 1
	return dst
}

// Backward runs the stack in reverse.
func (m *MLP) Backward(dy []float64) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all parameters of the stack.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ---- Optimizer ----

// Adam is the Adam optimizer with the usual defaults.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
}

// NewAdam returns Adam with lr and standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter from its accumulated gradient,
// then clears the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
		for i, g := range p.G {
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mh := p.m[i] / c1
			vh := p.v[i] / c2
			p.W[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			p.G[i] = 0
		}
	}
}

// ClipGrads scales all gradients so their global L2 norm is at most maxNorm.
// Returns the pre-clip norm.
//
// Audited edge cases: a zero gradient vector is left untouched (norm > 0
// guard, no 0/0), a NaN norm never scales (NaN comparisons are false, so a
// poisoned batch stays loudly poisoned rather than being rescaled into
// plausible-looking numbers), and maxNorm <= 0 clips everything to zero
// scale only when the norm is positive — i.e. it hard-zeroes gradients, it
// never divides by zero.
func ClipGrads(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm < 0 {
		// A negative budget would flip every gradient's sign through the
		// maxNorm/norm scale; treat it as "no gradient allowed" instead.
		maxNorm = 0
	}
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= s
			}
		}
	}
	return norm
}

// ---- Distributions ----

// Softmax returns the softmax of logits (numerically stable). Degenerate
// inputs — empty logits, all -Inf, or NaN poisoning — yield an empty or
// uniform distribution instead of NaN; see SoftmaxTo.
func Softmax(logits []float64) []float64 {
	return SoftmaxTo(make([]float64, len(logits)), logits)
}

// SoftmaxTo computes the softmax of logits into the caller-owned dst (len
// must match) and returns it; nothing is allocated and dst may alias logits.
//
// Degenerate inputs are defused instead of propagated: empty logits yield an
// empty distribution, and logits with no finite maximum (all -Inf, as a
// fully-masked action head produces) or a NaN-poisoned sum yield the uniform
// distribution. The historical behavior divided by a zero sum and handed
// NaN probabilities to action sampling, which silently biased
// SampleCategorical to the last action.
func SoftmaxTo(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic(&ShapeError{Op: "softmax dst", Got: len(dst), Want: len(logits)})
	}
	if len(logits) == 0 {
		return dst
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(maxv, -1) {
		return fillUniform(dst)
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	// sum >= exp(0) = 1 whenever every logit is a number; anything else
	// (a NaN slipped past the max scan) must not become a division by zero.
	if !(sum > 0) {
		return fillUniform(dst)
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// fillUniform writes the uniform distribution over len(dst) outcomes.
func fillUniform(dst []float64) []float64 {
	u := 1 / float64(len(dst))
	for i := range dst {
		dst[i] = u
	}
	return dst
}

// LogSoftmax returns log(softmax(logits)), with the same degenerate-input
// guarantees as Softmax (uniform log-probabilities instead of NaN).
func LogSoftmax(logits []float64) []float64 {
	return LogSoftmaxTo(make([]float64, len(logits)), logits)
}

// LogSoftmaxTo computes log(softmax(logits)) into the caller-owned dst (len
// must match) and returns it; nothing is allocated and dst may alias logits.
// Degenerate inputs (empty, all -Inf, NaN-poisoned) yield the uniform
// log-distribution -log(n) instead of NaN.
func LogSoftmaxTo(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic(&ShapeError{Op: "logsoftmax dst", Got: len(dst), Want: len(logits)})
	}
	if len(logits) == 0 {
		return dst
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	if !math.IsInf(maxv, -1) {
		for _, v := range logits {
			sum += math.Exp(v - maxv)
		}
	}
	if math.IsInf(maxv, -1) || !(sum > 0) {
		lu := -math.Log(float64(len(dst)))
		for i := range dst {
			dst[i] = lu
		}
		return dst
	}
	lse := maxv + math.Log(sum)
	for i, v := range logits {
		dst[i] = v - lse
	}
	return dst
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Argmax returns the index of the largest element.
func Argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// CategoricalEntropy returns -sum p log p.
func CategoricalEntropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// GaussianLogProb returns log N(a; mean, exp(logStd)^2).
func GaussianLogProb(a, mean, logStd float64) float64 {
	std := math.Exp(logStd)
	z := (a - mean) / std
	return -0.5*z*z - logStd - 0.5*math.Log(2*math.Pi)
}

// GaussianEntropy returns the differential entropy of N(., exp(logStd)^2).
func GaussianEntropy(logStd float64) float64 {
	return logStd + 0.5*math.Log(2*math.Pi*math.E)
}
