package rl

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"neurovec/internal/nn"
)

// Embedder turns an opaque sample ID into a differentiable observation
// vector. The code2vec model is the paper's embedder; a hand-crafted feature
// extractor is provided elsewhere as an ablation.
//
// Embed and Backward work through a caller-owned scratch from NewScratch,
// which holds the observation and whatever the backward pass needs, so one
// forward serves rollout, inference and the update alike. A scratch belongs
// to one goroutine at a time; Embed must be safe for concurrent callers
// with distinct scratches.
type Embedder interface {
	// NewScratch returns fresh per-caller state for Embed and Backward.
	NewScratch() any
	// Embed computes sample's observation through s and returns it. The
	// vector may live in s, valid until the next Embed on s.
	Embed(s any, sample int) []float64
	// Backward pushes dLoss/dObservation into the embedder's parameters
	// for sample, which must be the sample last embedded through s.
	Backward(s any, sample int, dvec []float64)
	// Params returns trainable parameters (may be empty).
	Params() []*nn.Param
	// Dim is the observation width.
	Dim() int
}

// Env supplies samples and rewards. Reward is called with concrete factor
// values (not indices) and must be deterministic for a given triple.
type Env interface {
	NumSamples() int
	// Reward returns (t_baseline - t_action)/t_baseline, or the compile-
	// timeout penalty, for injecting (vf, ifc) into the sample's loop.
	Reward(sample, vf, ifc int) float64
}

// SpaceKind selects the action-space definition (Figure 6).
type SpaceKind int

// Action spaces.
const (
	// Discrete: the agent picks two integers indexing the VF and IF arrays.
	Discrete SpaceKind = iota
	// Continuous1 encodes both factors in one continuous number.
	Continuous1
	// Continuous2 encodes the factors in two continuous numbers.
	Continuous2
)

// String names the space.
func (s SpaceKind) String() string {
	switch s {
	case Discrete:
		return "discrete"
	case Continuous1:
		return "continuous-1"
	case Continuous2:
		return "continuous-2"
	}
	return fmt.Sprintf("SpaceKind(%d)", int(s))
}

// Config carries the hyperparameters from the paper's evaluation: a 64x64
// fully-connected trunk, batch size 4000 and learning rate 5e-5 are the
// defaults the paper settles on.
type Config struct {
	VFs []int // e.g. {1,2,4,8,16,32,64}
	IFs []int // e.g. {1,2,4,8,16}

	// Hidden lists the trunk's fully-connected layer widths (paper: 64x64).
	Hidden []int
	// LR is the Adam learning rate.
	LR float64
	// Batch is the number of env samples (compilations) per iteration;
	// MiniBatch slices it for gradient steps.
	Batch     int
	MiniBatch int
	// Epochs is the number of PPO passes over each batch; Iterations the
	// number of collect-update cycles per training run.
	Epochs     int
	Iterations int
	// ClipEps is the PPO clipped-surrogate epsilon; EntropyCoef and
	// ValueCoef weight the entropy bonus and value loss; MaxGradNorm caps
	// the global gradient norm per update.
	ClipEps     float64
	EntropyCoef float64
	ValueCoef   float64
	MaxGradNorm float64
	// Space selects the Figure 6 action-space definition.
	Space SpaceKind
	// Seed drives weight init and the (seed, iteration)-derived streams of
	// sample selection, action sampling and minibatch shuffling.
	Seed int64
}

// DefaultConfig returns the paper's defaults (scaled batch for in-process
// experiments; the full 4000-sample batch is exercised by the sweep bench).
func DefaultConfig(vfs, ifs []int) Config {
	return Config{
		VFs:         vfs,
		IFs:         ifs,
		Hidden:      []int{64, 64},
		LR:          5e-5,
		Batch:       500,
		MiniBatch:   64,
		Epochs:      4,
		Iterations:  30,
		ClipEps:     0.2,
		EntropyCoef: 0.01,
		ValueCoef:   0.5,
		MaxGradNorm: 5,
		Space:       Discrete,
		Seed:        1,
	}
}

// Stats records the learning curves the paper plots in Figures 5 and 6.
type Stats struct {
	// RewardMean[i] is the mean reward of iteration i's rollout batch.
	RewardMean []float64
	// Loss[i] is the mean total PPO loss over iteration i's updates.
	Loss []float64
	// Steps[i] is the cumulative number of environment steps (compilations)
	// after iteration i.
	Steps []int
}

// Agent is the PPO policy: embedder -> trunk -> {action heads, value head}.
type Agent struct {
	// Cfg is the hyperparameter set the agent was built with. Read-only
	// after construction.
	Cfg Config

	emb    Embedder
	trunk  *nn.MLP
	headVF *nn.Dense // Discrete: |VFs| logits. Continuous: 1 mean.
	headIF *nn.Dense // Discrete: |IFs| logits. Continuous2: 1 mean. (nil for Continuous1)
	headV  *nn.Dense // value baseline
	logStd *nn.Param // continuous spaces only

	params []*nn.Param
	// iters counts the iterations TrainIterations has completed; it is the
	// next iteration's stream coordinate.
	iters int

	// inferPool recycles the buffers of the forward (apply) and of the
	// update's backward, so that steady-state serving, rollout and update
	// do zero heap allocations. Scratches are keyed to this agent's layer
	// dims; the pool is safe for any number of concurrent callers.
	inferPool sync.Pool
}

// inferScratch is one caller's worth of buffers: the trunk's activations
// and one destination slice per head, which is all PredictObs uses, plus
// the embedder's state and the rollout and update buffers, each built on
// first use so that a scratch that only serves stays this small.
type inferScratch struct {
	trunk *nn.Scratch
	vf    []float64 // VF head output: logits, then log-probabilities; or a mean
	ifc   []float64 // IF head output, likewise (nil for Continuous1)
	v     []float64 // value head output
	emb   any       // the embedder's scratch (see embed)
	train *trainScratch
}

// trainScratch holds the buffers of action sampling and of the update's
// backward.
type trainScratch struct {
	pvf   []float64 // exp of vf (discrete)
	pif   []float64 // exp of ifc (discrete)
	dvf   []float64 // gradient at the VF head's output
	dif   []float64 // gradient at the IF head's output
	dx    []float64 // one head's input gradient
	dFeat []float64 // the heads' input gradients summed
}

// getScratch pops a pooled scratch, building one sized to this agent's
// networks on a cold pool. Constructed lazily (rather than in NewAgent) so
// every construction path — including checkpoint restore — gets pooling.
func (a *Agent) getScratch() *inferScratch {
	if s, ok := a.inferPool.Get().(*inferScratch); ok {
		return s
	}
	s := &inferScratch{trunk: nn.NewScratch(a.trunk), vf: make([]float64, a.headVF.Out), v: make([]float64, 1)}
	if a.headIF != nil {
		s.ifc = make([]float64, a.headIF.Out)
	}
	return s
}

// embed runs the embedder on sample through s, building the embedder's
// scratch on s's first embed.
func (a *Agent) embed(s *inferScratch, sample int) []float64 {
	if s.emb == nil {
		s.emb = a.emb.NewScratch()
	}
	return a.emb.Embed(s.emb, sample)
}

// trainBufs returns s's sampling and backward buffers, building them on
// first use.
func (a *Agent) trainBufs(s *inferScratch) *trainScratch {
	if s.train != nil {
		return s.train
	}
	feat := a.trunk.OutDim()
	t := &trainScratch{
		pvf:   make([]float64, a.headVF.Out),
		dvf:   make([]float64, a.headVF.Out),
		dx:    make([]float64, feat),
		dFeat: make([]float64, feat),
	}
	if a.headIF != nil {
		t.pif = make([]float64, a.headIF.Out)
		t.dif = make([]float64, a.headIF.Out)
	}
	s.train = t
	return t
}

func (a *Agent) putScratch(s *inferScratch) { a.inferPool.Put(s) }

// apply is the agent's one forward: trunk and action heads over an
// observation, through s. The action heads' raw outputs (logits, or
// continuous means) land in s.vf and s.ifc; the trunk features are returned
// for the value head, and every activation stays in s for the update's
// backward. It reads only weights, so rollout workers, Predict and
// PredictObs may all run it at once.
func (a *Agent) apply(s *inferScratch, vec []float64) []float64 {
	feat := a.trunk.ApplyScratch(s.trunk, vec)
	a.headVF.ApplyTo(s.vf, feat)
	if a.headIF != nil {
		a.headIF.ApplyTo(s.ifc, feat)
	}
	return feat
}

// NewAgent builds the policy for the given embedder and config.
func NewAgent(emb Embedder, cfg Config) *Agent {
	if len(cfg.VFs) == 0 || len(cfg.IFs) == 0 {
		panic("rl: empty action space")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Agent{Cfg: cfg, emb: emb}
	a.trunk = nn.NewMLP("trunk", emb.Dim(), cfg.Hidden, rng)
	feat := a.trunk.OutDim()
	switch cfg.Space {
	case Discrete:
		a.headVF = nn.NewDense("headVF", feat, len(cfg.VFs), rng)
		a.headIF = nn.NewDense("headIF", feat, len(cfg.IFs), rng)
	case Continuous1:
		a.headVF = nn.NewDense("headJoint", feat, 1, rng)
		// Start mid-range with wide exploration over the 35 joint indices.
		a.headVF.B.W[0] = float64(len(cfg.VFs)*len(cfg.IFs)) / 2
		a.logStd = nn.NewParamInit("logStd", 1, func(int) float64 { return math.Log(float64(len(cfg.VFs)*len(cfg.IFs)) / 4) })
	case Continuous2:
		a.headVF = nn.NewDense("headVFc", feat, 1, rng)
		a.headIF = nn.NewDense("headIFc", feat, 1, rng)
		a.headVF.B.W[0] = float64(len(cfg.VFs)) / 2
		a.headIF.B.W[0] = float64(len(cfg.IFs)) / 2
		a.logStd = nn.NewParamInit("logStd", 2, func(i int) float64 {
			if i == 0 {
				return math.Log(float64(len(cfg.VFs)) / 3)
			}
			return math.Log(float64(len(cfg.IFs)) / 3)
		})
	}
	a.headV = nn.NewDense("value", feat, 1, rng)

	a.params = append(a.params, emb.Params()...)
	a.params = append(a.params, a.trunk.Params()...)
	a.params = append(a.params, a.headVF.Params()...)
	if a.headIF != nil {
		a.params = append(a.params, a.headIF.Params()...)
	}
	a.params = append(a.params, a.headV.Params()...)
	if a.logStd != nil {
		a.params = append(a.params, a.logStd)
	}
	return a
}

// evalOut is one policy evaluation. Its slices alias the scratch it was
// computed through.
type evalOut struct {
	obs    []float64 // the embedder's observation
	feat   []float64 // trunk features
	logpVF []float64 // discrete: log-softmax per head
	logpIF []float64
	meanVF float64 // continuous heads
	meanIF float64
	value  float64
}

// transition is one bandit step stored for PPO updates.
type transition struct {
	sample  int
	vfIdx   int
	ifIdx   int
	raw     [2]float64 // continuous pre-rounding actions
	oldLogp float64
	adv     float64
	reward  float64
}

// sampleActionWith draws an action from the current policy using an explicit
// RNG, so parallel rollout workers can each bring their own derived stream.
func (a *Agent) sampleActionWith(s *inferScratch, out evalOut, rng *rand.Rand) (vfIdx, ifIdx int, raw [2]float64, logp float64) {
	switch a.Cfg.Space {
	case Discrete:
		t := a.trainBufs(s)
		vfIdx = nn.SampleCategorical(expInto(t.pvf, out.logpVF), rng)
		ifIdx = nn.SampleCategorical(expInto(t.pif, out.logpIF), rng)
		logp = out.logpVF[vfIdx] + out.logpIF[ifIdx]
	case Continuous1:
		x := out.meanVF + rng.NormFloat64()*math.Exp(a.logStd.W[0])
		raw[0] = x
		logp = nn.GaussianLogProb(x, out.meanVF, a.logStd.W[0])
		vfIdx, ifIdx = a.decodeJoint(x)
	case Continuous2:
		x := out.meanVF + rng.NormFloat64()*math.Exp(a.logStd.W[0])
		y := out.meanIF + rng.NormFloat64()*math.Exp(a.logStd.W[1])
		raw[0], raw[1] = x, y
		logp = nn.GaussianLogProb(x, out.meanVF, a.logStd.W[0]) +
			nn.GaussianLogProb(y, out.meanIF, a.logStd.W[1])
		vfIdx = clampRound(x, len(a.Cfg.VFs))
		ifIdx = clampRound(y, len(a.Cfg.IFs))
	}
	return vfIdx, ifIdx, raw, logp
}

// decodeJoint maps one continuous number to the (VF, IF) index pair; the
// number is "rounded to the closest integer" joint index as in the paper.
func (a *Agent) decodeJoint(x float64) (int, int) {
	n := len(a.Cfg.VFs) * len(a.Cfg.IFs)
	k := clampRound(x, n)
	return k / len(a.Cfg.IFs), k % len(a.Cfg.IFs)
}

func clampRound(x float64, n int) int {
	k := int(math.Round(x))
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// logpOf recomputes the log-probability (and entropy) of a stored action
// under the current policy output; discrete probabilities land in the
// pvf and pif of s's training buffers.
func (a *Agent) logpOf(s *inferScratch, out evalOut, tr *transition) (logp, entropy float64) {
	switch a.Cfg.Space {
	case Discrete:
		logp = out.logpVF[tr.vfIdx] + out.logpIF[tr.ifIdx]
		t := a.trainBufs(s)
		entropy = nn.CategoricalEntropy(expInto(t.pvf, out.logpVF)) + nn.CategoricalEntropy(expInto(t.pif, out.logpIF))
	case Continuous1:
		logp = nn.GaussianLogProb(tr.raw[0], out.meanVF, a.logStd.W[0])
		entropy = nn.GaussianEntropy(a.logStd.W[0])
	case Continuous2:
		logp = nn.GaussianLogProb(tr.raw[0], out.meanVF, a.logStd.W[0]) +
			nn.GaussianLogProb(tr.raw[1], out.meanIF, a.logStd.W[1])
		entropy = nn.GaussianEntropy(a.logStd.W[0]) + nn.GaussianEntropy(a.logStd.W[1])
	}
	return logp, entropy
}

// expInto writes exp(logp) elementwise into dst and returns it.
func expInto(dst, logp []float64) []float64 {
	for i, v := range logp {
		dst[i] = math.Exp(v)
	}
	return dst
}
