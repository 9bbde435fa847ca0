// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's models: fully-connected policy/value networks (the 64x64
// FCNN and the wider variants of the hyperparameter sweep), the code2vec
// attention encoder, categorical and Gaussian action heads, and the Adam
// optimizer. Everything is float64 and single-threaded.
//
// Every op has one variant, and it is destination-passing: Dense.ApplyTo,
// MLP.ApplyScratch over a caller-owned Scratch, SoftmaxTo and LogSoftmaxTo
// write into buffers the caller brings and allocate nothing. Layers hold
// only parameters, and training reads them exactly as inference does: a
// backward pass is handed the activations its forward left in the caller's
// buffers (Dense.Backward takes its input x; MLP.Backward reads the
// Scratch that ApplyScratch filled). So the forward that serves is the
// forward that trains, bit for bit, and any number of goroutines may run
// it on a shared network, each with its own buffers, as long as no
// optimizer step mutates the weights concurrently. Backward passes
// accumulate into the parameters' gradients and so belong to one goroutine.
// Shape violations panic with a typed *ShapeError so a serving boundary can
// recover it into an error instead of crashing the process.
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

// Len returns the number of elements.
func (p *Param) Len() int { return len(p.W) }

// ---- Dense ----

// Dense is a fully-connected layer y = W x + b. It holds only parameters:
// the activations a backward pass needs live in the caller's buffers, so
// training reads the layer exactly as inference does.
type Dense struct {
	In, Out int
	W, B    *Param
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

// Backward accumulates dW and db for the input x that ApplyTo was given and
// the output gradient dy, and writes dx = Wᵀ dy into the caller-owned dx
// (len must be In), which it returns. dx must not alias x or dy. Nothing is
// allocated.
func (d *Dense) Backward(dx, x, dy []float64) []float64 {
	if len(x) != d.In {
		panic(&ShapeError{Op: "dense " + d.W.Name + " backward input", Got: len(x), Want: d.In})
	}
	if len(dx) != d.In {
		panic(&ShapeError{Op: "dense " + d.W.Name + " backward dx", Got: len(dx), Want: d.In})
	}
	if len(dy) != d.Out {
		panic(&ShapeError{Op: "dense " + d.W.Name + " backward dy", Got: len(dy), Want: d.Out})
	}
	clear(dx)
	for o, g := range dy {
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
			grow[i] += g * x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the layer's parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ---- MLP ----

// MLP is a stack of dense layers, each followed by an elementwise tanh.
type MLP struct{ Layers []*Dense }

// NewMLP builds a tanh MLP with the given hidden sizes (the paper's default
// is hidden = [64, 64]).
func NewMLP(name string, in int, hidden []int, rng *rand.Rand) *MLP {
	m := &MLP{}
	prev := in
	for i, h := range hidden {
		m.Layers = append(m.Layers, NewDense(fmt.Sprintf("%s.fc%d", name, i), prev, h, rng))
		prev = h
	}
	return m
}

// OutDim returns the width of the final layer.
func (m *MLP) OutDim() int {
	if len(m.Layers) == 0 {
		return 0
	}
	return m.Layers[len(m.Layers)-1].Out
}

// Scratch is the caller-owned memory of one MLP pass: one output buffer per
// layer, which ApplyScratch fills and Backward reads, and the two gradient
// buffers Backward works through, grown on its first call so that a Scratch
// only ever used to serve holds just the activations. Size it once from the
// network with NewScratch (the buffers also grow on demand, so a Scratch
// survives a hot-reload to a wider model) and reuse it across calls —
// typically via a sync.Pool, one Scratch per in-flight request. A Scratch
// must not be shared by concurrent callers.
type Scratch struct {
	outs     [][]float64
	dpre, dx []float64
}

// NewScratch returns a Scratch pre-sized for every layer of m, so the first
// ApplyScratch call already allocates nothing.
func NewScratch(m *MLP) *Scratch {
	s := &Scratch{outs: make([][]float64, len(m.Layers))}
	for i, d := range m.Layers {
		s.outs[i] = make([]float64, d.Out)
	}
	return s
}

// growTo returns buf resized to n, growing its backing array only when n
// exceeds the high-water mark.
func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// out returns layer i's output buffer resized to n.
func (s *Scratch) out(i, n int) []float64 {
	for len(s.outs) <= i {
		s.outs = append(s.outs, nil)
	}
	s.outs[i] = growTo(s.outs[i], n)
	return s.outs[i]
}

// ApplyScratch runs the stack on x with zero heap allocations once s has
// grown to the network: each dense layer writes into its own buffer of s,
// which tanh then squashes in place. The result is the last layer's buffer;
// it and every hidden activation stay valid until the next ApplyScratch on
// s, which is what Backward reads. The caller's x is never written to.
func (m *MLP) ApplyScratch(s *Scratch, x []float64) []float64 {
	cur := x
	for i, d := range m.Layers {
		y := d.ApplyTo(s.out(i, d.Out), cur)
		for j, v := range y {
			y[j] = math.Tanh(v)
		}
		cur = y
	}
	return cur
}

// Backward accumulates every layer's parameter gradients for the pass
// ApplyScratch last ran through s on input x, given dy, the gradient with
// respect to the stack's output. It returns the gradient with respect to x,
// which lives in s and stays valid until the next Backward on s. dy is only
// read. Nothing is allocated after the first Backward on s.
func (m *MLP) Backward(s *Scratch, x, dy []float64) []float64 {
	if len(dy) != m.OutDim() {
		panic(&ShapeError{Op: "mlp backward dy", Got: len(dy), Want: m.OutDim()})
	}
	for i := len(m.Layers) - 1; i >= 0; i-- {
		d := m.Layers[i]
		y := s.outs[i][:d.Out]
		// Through tanh: dpre = dy·(1 - y²), y being the squashed output.
		s.dpre = growTo(s.dpre, d.Out)
		for j, g := range dy {
			s.dpre[j] = g * (1 - y[j]*y[j])
		}
		in := x
		if i > 0 {
			in = s.outs[i-1][:d.In]
		}
		s.dx = growTo(s.dx, d.In)
		dy = d.Backward(s.dx, in, s.dpre)
	}
	return dy
}

// Params returns all parameters of the stack.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, d := range m.Layers {
		ps = append(ps, d.Params()...)
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
