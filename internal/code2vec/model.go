package code2vec

import (
	"math"
	"math/rand"

	"neurovec/internal/nn"
)

// Model is the attention encoder: hashed embeddings for terminals and paths,
// a projection to the code-vector width, and a learned attention vector that
// aggregates contexts. All parameters are trained by gradients arriving at
// the output vector (end-to-end with the RL loss).
type Model struct {
	Cfg  Config
	Tok  *nn.Param // TokenVocab x EmbedDim
	Path *nn.Param // PathVocab x EmbedDim
	W    *nn.Param // OutDim x 3*EmbedDim
	B    *nn.Param // OutDim
	Attn *nn.Param // OutDim
}

// NewModel initialises the embedder.
func NewModel(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	scaleEmb := 1.0 / math.Sqrt(float64(d))
	scaleW := math.Sqrt(2.0 / float64(3*d+cfg.OutDim))
	norm := func(scale float64) func(int) float64 {
		return func(int) float64 { return rng.NormFloat64() * scale }
	}
	return &Model{
		Cfg:  cfg,
		Tok:  nn.NewParamInit("c2v.tok", cfg.TokenVocab*d, norm(scaleEmb)),
		Path: nn.NewParamInit("c2v.path", cfg.PathVocab*d, norm(scaleEmb)),
		W:    nn.NewParamInit("c2v.W", cfg.OutDim*3*d, norm(scaleW)),
		B:    nn.NewParam("c2v.b", cfg.OutDim),
		Attn: nn.NewParamInit("c2v.attn", cfg.OutDim, norm(0.1)),
	}
}

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Param {
	return []*nn.Param{m.Tok, m.Path, m.W, m.B, m.Attn}
}

// Dim returns the code-vector width.
func (m *Model) Dim() int { return m.Cfg.OutDim }

// Scratch holds the reusable buffers ForwardInto needs, and keeps what it
// computed for Backward: the triple numbering, the squashed projections and
// the attention weights. A Scratch belongs to one caller at a time; pool or
// confine it. The zero value is ready to use — buffers grow on demand and
// are retained across calls.
type Scratch struct {
	triple []int     // per context: index of its (Left, Path, Right) among the distinct triples
	pairOf []int     // per distinct triple: index of its (Left, Path) among the distinct pairs
	leftOf []int     // per distinct pair: index of its Left among the distinct lefts
	lefts  []uint32  // token rows of the distinct lefts
	paths  []uint32  // path rows of the distinct pairs
	rights []uint32  // token rows of the distinct triples' rights
	lanes  []float64 // up to eight input rows interleaved, 8*EmbedDim: the vector kernels' operand
	h      []float64 // projections, a row of OutDim per distinct prefix: pre-activation, then squashed
	scores []float64 // attention logits, n
	alpha  []float64 // attention weights, n
	grad   []float64 // Backward's dAlpha (n), per-context input and its gradient (3*EmbedDim each)
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ForwardInto embeds a context bag into a code vector: it writes the vector
// into dst (which must have length Cfg.OutDim), leaves in s what Backward
// needs, and performs zero heap allocations once s's buffers have grown to
// the bag size: after a bag of n contexts, any bag of at most n. An empty
// bag yields the zero vector (e.g. a degenerate loop with no terminals).
// Training and inference run this one forward, so they agree bit for bit.
//
// Each context's pre-activation is B[o] + Σ_k W[o][k]·c[k] over its input
// c = [Tok[Left] | Path[Path] | Tok[Right]], summed in k order. After the
// first EmbedDim terms the running sum depends only on (o, Left), after
// 2·EmbedDim terms only on (o, Left, Path), and after all of them only on
// the triple. So the bag is numbered as a prefix trie: the left terms are
// summed once per distinct left, the path terms once per distinct
// (Left, Path) pair continuing from its left's sums, and the right terms
// once per distinct triple continuing from its pair's sums. Every pass runs
// through accum, which keeps every sum's order. tanh and the attention
// score are computed once per distinct triple: tanhInPlace squashes the
// triples' rows, which lie contiguous in h, in one call, and scoreRows sums
// four triples' scores at a time, each in o order. The softmax and the
// weighted sum, one axpy per context, then run over the contexts in order.
// The result is bit-identical to the plain per-context loop.
func (m *Model) ForwardInto(dst []float64, ctxs []Context, s *Scratch) []float64 {
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	if len(dst) != out {
		panic(&nn.ShapeError{Op: "code2vec dst", Got: len(dst), Want: out})
	}
	for o := range dst {
		dst[o] = 0
	}
	if len(ctxs) == 0 {
		return dst
	}

	n := len(ctxs)
	if cap(s.triple) < n {
		s.triple = make([]int, n)
		s.pairOf = make([]int, n)
		s.leftOf = make([]int, n)
		s.lefts = make([]uint32, n)
		s.paths = make([]uint32, n)
		s.rights = make([]uint32, n)
	}
	s.triple = s.triple[:n]
	h := growF(s.h, n*out)
	s.h = h
	s.lanes = growF(s.lanes, 8*d)
	s.scores = growF(s.scores, n)
	s.alpha = growF(s.alpha, n)

	// Number the distinct lefts, pairs and triples in first-seen order. A
	// context that brings a new pair also brings a new triple, and one that
	// brings a new left also brings a new pair, so every node's parent is
	// numbered no higher than the node itself.
	lefts, paths, rights := s.lefts[:0], s.paths[:0], s.rights[:0]
	for i, cx := range ctxs {
		l := 0
		for l < len(lefts) && lefts[l] != cx.Left {
			l++
		}
		if l == len(lefts) {
			lefts = append(lefts, cx.Left)
		}
		p := 0
		for p < len(paths) && (s.leftOf[p] != l || paths[p] != cx.Path) {
			p++
		}
		if p == len(paths) {
			s.leftOf[p] = l
			paths = append(paths, cx.Path)
		}
		t := 0
		for t < len(rights) && (s.pairOf[t] != p || rights[t] != cx.Right) {
			t++
		}
		if t == len(rights) {
			s.pairOf[t] = p
			rights = append(rights, cx.Right)
		}
		s.triple[i] = t
	}

	// Row l of h gets the bias plus the left terms of the l-th distinct
	// left. Each pass then continues every node of the next level from its
	// parent's row over the next EmbedDim terms.
	for l := range lefts {
		copy(h[l*out:(l+1)*out], m.B.W)
	}
	accum(h[:len(lefts)*out], nil, m.Tok.W, lefts, d, m.W.W, 3*d, 0, s.lanes)
	accum(h[:len(paths)*out], s.leftOf[:len(paths)], m.Path.W, paths, d, m.W.W, 3*d, d, s.lanes)
	accum(h[:len(rights)*out], s.pairOf[:len(rights)], m.Tok.W, rights, d, m.W.W, 3*d, 2*d, s.lanes)

	tanhInPlace(h[:len(rights)*out])
	scoreRows(s.scores[:len(rights)], h, m.Attn.W)
	for i := n - 1; i >= 0; i-- { // a context's triple is numbered at most i
		s.scores[i] = s.scores[s.triple[i]]
	}
	nn.SoftmaxTo(s.alpha, s.scores)
	for i, t := range s.triple {
		axpy(s.alpha[i], h[t*out:(t+1)*out], dst)
	}
	return dst
}

// scoreRows sets dst[r] = Σ_o w[o]·h[r*len(w)+o], summed in o order from
// zero, for every row r < len(dst): the attention scores in ForwardInto,
// the dots h·dvec in Backward. It sweeps four rows at a time, so four
// independent sums are in flight, each rounded as the one-row loop rounds
// it; a tail takes len(dst) % 4.
func scoreRows(dst, h, w []float64) {
	out := len(w)
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		h0 := h[r*out:][:out]
		h1 := h[(r+1)*out:][:out]
		h2 := h[(r+2)*out:][:out]
		h3 := h[(r+3)*out:][:out]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for o, a := range w {
			s0 += a * h0[o]
			s1 += a * h1[o]
			s2 += a * h2[o]
			s3 += a * h3[o]
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < len(dst); r++ {
		hr := h[r*out:][:out]
		s0 := 0.0
		for o, a := range w {
			s0 += a * hr[o]
		}
		dst[r] = s0
	}
}

// tanhInPlace sets x[i] = math.Tanh(x[i]) for every i. It is tanhGo,
// unless accum_amd64.go installs the AVX kernel on a CPU that has it.
var tanhInPlace = tanhGo

func tanhGo(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

// axpy performs y[k] += a*x[k] for every k < len(x), each product rounded
// and then added, as the scalar loop rounds them. It is axpyGo, unless
// accum_amd64.go installs an AVX or AVX-512 kernel on a CPU that has it.
var axpy = axpyGo

func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for k, v := range x {
		y[k] += a * v
	}
}

// accum adds one EmbedDim-wide column window of W, times embedding rows,
// onto sums that continue a parent row. acc holds one row of sums per entry
// of rows, and row i continues the sums that row from[i] <= i held before
// the call (a nil from continues every row from its own sums). For every
// such row i and output o it sets
//
//	acc[i*out+o] = acc[from[i]*out+o] + W[o*stride+k0+k] * table[rows[i]*d+k]   for k = 0 .. d-1
//
// adding the terms in that order, each rounded onto the running sum exactly
// as a scalar loop would round it. lanes is scratch for 8·d floats. accum
// is accumGo, unless accum_amd64.go installs an AVX or AVX-512 kernel on a
// CPU that has it.
var accum = accumGo

// accumGo is the pure-Go accum: startRows copies the parents' rows, then it
// sweeps the rows two at a time through accum2, and accum1 takes an odd
// last row. It needs no scratch.
func accumGo(acc []float64, from []int, table []float64, rows []uint32, d int, w []float64, stride, k0 int, _ []float64) {
	n := len(rows)
	if n == 0 {
		return
	}
	out := len(acc) / n
	startRows(acc, from, out)
	i := 0
	for ; i+2 <= n; i += 2 {
		x0 := table[int(rows[i])*d:][:d]
		x1 := table[int(rows[i+1])*d:][:d]
		accum2(acc[i*out:(i+1)*out], acc[(i+1)*out:(i+2)*out], x0, x1, w, stride, k0)
	}
	if i < n {
		accum1(acc[i*out:(i+1)*out], table[int(rows[i])*d:][:d], w, stride, k0)
	}
}

// startRows gives every row i of acc the sums of row from[i], copying from
// the last row down: since from[i] <= i, no row is overwritten before its
// last reader.
func startRows(acc []float64, from []int, out int) {
	for i := len(from) - 1; i >= 0; i-- {
		if p := from[i]; p != i {
			copy(acc[i*out:(i+1)*out], acc[p*out:(p+1)*out])
		}
	}
}

// accum2 is accum over two rows with inputs x0 and x1 of equal length. It
// sweeps four outputs at a time, so eight independent sums are in flight
// and each W load feeds two rows; a tail takes OutDim % 4.
func accum2(a0, a1, x0, x1, w []float64, stride, k0 int) {
	kl := len(x0)
	out := len(a0)
	a1 = a1[:out]
	x1 = x1[:kl]
	o := 0
	for ; o+4 <= out; o += 4 {
		w0 := w[o*stride+k0:][:kl]
		w1 := w[(o+1)*stride+k0:][:kl]
		w2 := w[(o+2)*stride+k0:][:kl]
		w3 := w[(o+3)*stride+k0:][:kl]
		s00, s01, s02, s03 := a0[o], a0[o+1], a0[o+2], a0[o+3]
		s10, s11, s12, s13 := a1[o], a1[o+1], a1[o+2], a1[o+3]
		for k, v0 := range x0 {
			v1 := x1[k]
			s00 += w0[k] * v0
			s10 += w0[k] * v1
			s01 += w1[k] * v0
			s11 += w1[k] * v1
			s02 += w2[k] * v0
			s12 += w2[k] * v1
			s03 += w3[k] * v0
			s13 += w3[k] * v1
		}
		a0[o], a0[o+1], a0[o+2], a0[o+3] = s00, s01, s02, s03
		a1[o], a1[o+1], a1[o+2], a1[o+3] = s10, s11, s12, s13
	}
	for ; o < out; o++ {
		wo := w[o*stride+k0:][:kl]
		s0, s1 := a0[o], a1[o]
		for k, v0 := range x0 {
			s0 += wo[k] * v0
			s1 += wo[k] * x1[k]
		}
		a0[o], a1[o] = s0, s1
	}
}

// accum1 is accum over a single row with input x.
func accum1(acc, x, w []float64, stride, k0 int) {
	kl := len(x)
	out := len(acc)
	o := 0
	for ; o+4 <= out; o += 4 {
		w0 := w[o*stride+k0:][:kl]
		w1 := w[(o+1)*stride+k0:][:kl]
		w2 := w[(o+2)*stride+k0:][:kl]
		w3 := w[(o+3)*stride+k0:][:kl]
		s0, s1, s2, s3 := acc[o], acc[o+1], acc[o+2], acc[o+3]
		for k, v := range x {
			s0 += w0[k] * v
			s1 += w1[k] * v
			s2 += w2[k] * v
			s3 += w3[k] * v
		}
		acc[o], acc[o+1], acc[o+2], acc[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		wo := w[o*stride+k0:][:kl]
		s0 := acc[o]
		for k, v := range x {
			s0 += wo[k] * v
		}
		acc[o] = s0
	}
}

// Backward accumulates parameter gradients given dLoss/dCodeVector for the
// bag ctxs, whose forward pass ForwardInto last ran through s. It reads the
// projections and attention weights from s and each context's input rows
// from Tok and Path, which an optimizer step must not change in between.
// Nothing is allocated once s has grown to the bag.
//
// Its arithmetic is the plain scalar loops', bit for bit: dAlpha's dots go
// through scoreRows, each summed in o order, and every update of Attn.G,
// W.G and the input gradient is an axpy, whose elements are independent
// chains.
func (m *Model) Backward(s *Scratch, ctxs []Context, dvec []float64) {
	if len(ctxs) == 0 {
		return
	}
	if len(ctxs) != len(s.triple) {
		panic(&nn.ShapeError{Op: "code2vec backward contexts", Got: len(ctxs), Want: len(s.triple)})
	}
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	n := len(ctxs)
	alpha := s.alpha[:n]

	// v = sum_i alpha_i h_i with alpha = softmax(attn . h_i).
	// dAlpha_i = h_i . dvec ; dScore via softmax Jacobian;
	// dh_i = alpha_i dvec + dScore_i * attn. One buffer holds dAlpha, the
	// per-context input c and its gradient dc, which is cleared for each
	// context. Contexts with the same triple share one row of projections,
	// so dAlpha is summed once per distinct triple, as ForwardInto sums the
	// scores, and then copied out to the contexts.
	s.grad = growF(s.grad, n+6*d)
	dAlpha, c, dc := s.grad[:n], s.grad[n:n+3*d], s.grad[n+3*d:]
	triples := 0
	for _, t := range s.triple {
		triples = max(triples, t+1)
	}
	scoreRows(dAlpha[:triples], s.h, dvec[:out])
	for i := n - 1; i >= 0; i-- { // a context's triple is numbered at most i
		dAlpha[i] = dAlpha[s.triple[i]]
	}
	dot := 0.0
	for i := 0; i < n; i++ {
		dot += alpha[i] * dAlpha[i]
	}
	for i, cx := range ctxs {
		h := s.h[s.triple[i]*out : (s.triple[i]+1)*out]
		dScore := alpha[i] * (dAlpha[i] - dot)
		axpy(dScore, h, m.Attn.G) // attention vector gradient
		// Through h_i (tanh) into W, b and the context input
		// c = [Tok[Left] | Path[Path] | Tok[Right]], gathered from the
		// tables.
		copy(c[0:d], m.Tok.W[int(cx.Left)*d:(int(cx.Left)+1)*d])
		copy(c[d:2*d], m.Path.W[int(cx.Path)*d:(int(cx.Path)+1)*d])
		copy(c[2*d:3*d], m.Tok.W[int(cx.Right)*d:(int(cx.Right)+1)*d])
		clear(dc)
		for o := 0; o < out; o++ {
			dh := alpha[i]*dvec[o] + dScore*m.Attn.W[o]
			dpre := dh * (1 - h[o]*h[o])
			if dpre == 0 {
				continue
			}
			row := m.W.W[o*3*d : (o+1)*3*d]
			grow := m.W.G[o*3*d : (o+1)*3*d]
			m.B.G[o] += dpre
			axpy(dpre, c, grow)
			axpy(dpre, row, dc)
		}
		// Scatter into the embedding tables.
		lg := m.Tok.G[int(cx.Left)*d : (int(cx.Left)+1)*d]
		pg := m.Path.G[int(cx.Path)*d : (int(cx.Path)+1)*d]
		rg := m.Tok.G[int(cx.Right)*d : (int(cx.Right)+1)*d]
		for k := 0; k < d; k++ {
			lg[k] += dc[k]
			pg[k] += dc[d+k]
			rg[k] += dc[2*d+k]
		}
	}
}
