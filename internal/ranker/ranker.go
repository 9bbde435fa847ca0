// Package ranker implements the paper's Section 5 "vanilla deep neural
// network" alternative to the RL agent: a network that, "given an embedding,
// and pragmas", predicts "the execution time normalized to the
// non-vectorized code" — i.e. a *learned cost model* over (loop, VF, IF)
// that could replace the baseline cost model outright.
//
// Unlike NNS and decision trees, this model trains end to end: the
// regression loss backpropagates through the trunk into the embedding
// generator. At inference it scores all 35 factor pairs and picks the
// minimum-predicted-time pair, mirroring how a compiler cost model is
// queried.
package ranker

import (
	"math"
	"math/rand"

	"neurovec/internal/nn"
	"neurovec/internal/rl"
)

// Target supplies training signal: the simulated execution time of a sample
// under (vf, ifc), normalized to its scalar (VF=1, IF=1) time.
type Target interface {
	NumSamples() int
	NormTime(sample, vf, ifc int) float64
}

// Config controls the model.
type Config struct {
	VFs    []int
	IFs    []int
	Hidden []int
	LR     float64
	// Steps is the number of (sample, action) regression examples drawn.
	Steps int
	Batch int
	Seed  int64
}

// DefaultConfig returns a configuration matching the RL trunk (64x64).
func DefaultConfig(vfs, ifs []int) Config {
	return Config{
		VFs: vfs, IFs: ifs,
		Hidden: []int{64, 64},
		LR:     1e-3,
		Steps:  20000,
		Batch:  32,
		Seed:   1,
	}
}

// Model is the learned cost model. Its forward and backward run through one
// set of buffers the model owns, so a Model serves one caller at a time.
type Model struct {
	Cfg Config

	emb    rl.Embedder
	trunk  *nn.MLP
	head   *nn.Dense
	params []*nn.Param
	rng    *rand.Rand

	// The buffers: the embedder's state, the trunk input x (the embedding
	// followed by one-hot VF and IF), the trunk's activations and its
	// output h, the head's output y, and the gradients dy at y and dh at h.
	embS  any
	x     []float64
	ts    *nn.Scratch
	h     []float64
	y, dy []float64
	dh    []float64
}

// New builds the model over an embedder (typically the code2vec model, so
// training is end to end; a frozen feature extractor also works).
func New(emb rl.Embedder, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := emb.Dim() + len(cfg.VFs) + len(cfg.IFs)
	m := &Model{Cfg: cfg, emb: emb, rng: rng}
	m.trunk = nn.NewMLP("ranker", in, cfg.Hidden, rng)
	m.head = nn.NewDense("ranker.out", m.trunk.OutDim(), 1, rng)
	m.params = append(m.params, emb.Params()...)
	m.params = append(m.params, m.trunk.Params()...)
	m.params = append(m.params, m.head.Params()...)
	m.embS = emb.NewScratch()
	m.x = make([]float64, in)
	m.ts = nn.NewScratch(m.trunk)
	m.y, m.dy = make([]float64, 1), make([]float64, 1)
	m.dh = make([]float64, m.trunk.OutDim())
	return m
}

// forward predicts log-normalized time for (sample, action indices), leaving
// its activations in the model's buffers for backward.
func (m *Model) forward(sample, vfIdx, ifIdx int) float64 {
	vec := m.emb.Embed(m.embS, sample)
	x := m.x
	copy(x, vec)
	clear(x[len(vec):])
	x[len(vec)+vfIdx] = 1
	x[len(vec)+len(m.Cfg.VFs)+ifIdx] = 1
	m.h = m.trunk.ApplyScratch(m.ts, x)
	return m.head.ApplyTo(m.y, m.h)[0]
}

// backward accumulates the gradients of the last forward, for sample, given
// dLoss/dPrediction.
func (m *Model) backward(sample int, dpred float64) {
	m.dy[0] = dpred
	dh := m.head.Backward(m.dh, m.h, m.dy)
	dx := m.trunk.Backward(m.ts, m.x, dh)
	m.emb.Backward(m.embS, sample, dx[:m.emb.Dim()])
}

// Train fits the model by sampling (sample, action) pairs and regressing on
// log normalized time (log-space keeps the -9-style outliers from dominating
// the loss). Returns the per-checkpoint MSE curve (one point per 1/20 of the
// budget).
func (m *Model) Train(tgt Target) []float64 {
	opt := nn.NewAdam(m.Cfg.LR)
	var curve []float64
	checkpoint := m.Cfg.Steps / 20
	if checkpoint == 0 {
		checkpoint = 1
	}
	runSum, runN := 0.0, 0

	for step := 0; step < m.Cfg.Steps; step++ {
		sample := m.rng.Intn(tgt.NumSamples())
		vfIdx := m.rng.Intn(len(m.Cfg.VFs))
		ifIdx := m.rng.Intn(len(m.Cfg.IFs))
		target := math.Log(math.Max(tgt.NormTime(sample, m.Cfg.VFs[vfIdx], m.Cfg.IFs[ifIdx]), 1e-6))

		pred := m.forward(sample, vfIdx, ifIdx)
		diff := pred - target
		runSum += diff * diff
		runN++

		m.backward(sample, diff/float64(m.Cfg.Batch))
		if (step+1)%m.Cfg.Batch == 0 {
			nn.ClipGrads(m.params, 5)
			opt.Step(m.params)
		}
		if (step+1)%checkpoint == 0 {
			curve = append(curve, runSum/float64(runN))
			runSum, runN = 0, 0
		}
	}
	return curve
}

// PredictTime returns the predicted normalized time for concrete factors.
func (m *Model) PredictTime(sample, vf, ifc int) float64 {
	pred := m.forward(sample, indexOf(m.Cfg.VFs, vf), indexOf(m.Cfg.IFs, ifc))
	return math.Exp(pred)
}

// Best scores every factor pair and returns the predicted-fastest one — the
// cost-model query a compiler would issue.
func (m *Model) Best(sample int) (vf, ifc int) {
	best := math.Inf(1)
	vf, ifc = 1, 1
	for vi, v := range m.Cfg.VFs {
		for ii, f := range m.Cfg.IFs {
			pred := m.forward(sample, vi, ii)
			if pred < best {
				best, vf, ifc = pred, v, f
			}
		}
	}
	return vf, ifc
}

func indexOf(a []int, v int) int {
	for i, x := range a {
		if x == v {
			return i
		}
	}
	return 0
}
