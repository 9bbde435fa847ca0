package rl

import (
	"math"
	"math/rand"

	"neurovec/internal/nn"
)

// Train runs PPO for cfg.Iterations iterations and returns the learning
// curves. Each iteration collects cfg.Batch environment steps (one step =
// one compilation + simulated run, as in the paper) and performs cfg.Epochs
// passes of clipped-surrogate updates over them.
func (a *Agent) Train(env Env) *Stats { return a.TrainIterations(env, a.Cfg.Iterations) }

// TrainIterations is Train with an explicit iteration count, and the loop
// package trainer runs: iteration i is CollectBatch(env, Cfg.Seed, i, 0) —
// rollout on GOMAXPROCS workers, so the embedder and env must be safe for
// concurrent callers — then UpdateBatch. Each call starts a fresh Adam and
// continues from the iterations the agent has completed, so a continuation
// draws fresh (seed, iteration) streams instead of replaying the first ones.
// One call on a fresh agent yields the weights of a trainer run of the same
// length, bit for bit.
//
// The count is a parameter rather than a temporary Cfg.Iterations mutation
// so that a concurrently-serving reader of the shared config never observes
// a transient value mid-continuation.
func (a *Agent) TrainIterations(env Env, iterations int) *Stats {
	opt := nn.NewAdam(a.Cfg.LR)
	stats := &Stats{}
	steps := 0
	for end := a.iters + iterations; a.iters < end; a.iters++ {
		batch := a.CollectBatch(env, a.Cfg.Seed, a.iters, 0)
		loss := a.UpdateBatch(batch, opt, a.Cfg.Seed, a.iters)
		steps += batch.Len()
		stats.RewardMean = append(stats.RewardMean, batch.RewardMean())
		stats.Loss = append(stats.Loss, loss)
		stats.Steps = append(stats.Steps, steps)
	}
	return stats
}

// update performs one gradient step over a minibatch and returns its mean
// total loss. Each sample runs the rollout's forward (applyOut) and
// backpropagates from the activations it left in the scratch.
func (a *Agent) update(mb []*transition, opt *nn.Adam) float64 {
	cfg := a.Cfg
	inv := 1.0 / float64(len(mb))
	totalLoss := 0.0
	s := a.getScratch()
	defer a.putScratch(s)

	for _, tr := range mb {
		out := a.applyOut(s, tr.sample)
		logp, entropy := a.logpOf(s, out, tr)
		ratio := math.Exp(logp - tr.oldLogp)
		adv := tr.adv

		// Clipped surrogate.
		unclipped := ratio * adv
		clipped := clamp(ratio, 1-cfg.ClipEps, 1+cfg.ClipEps) * adv
		pgLoss := -math.Min(unclipped, clipped)
		vDiff := out.value - tr.reward
		vLoss := 0.5 * vDiff * vDiff
		totalLoss += pgLoss + cfg.ValueCoef*vLoss - cfg.EntropyCoef*entropy

		// dLoss/dlogp: active only when the unclipped branch is selected.
		dLogp := 0.0
		if unclipped <= clipped {
			dLogp = -adv * ratio
		}
		a.backward(s, out, tr, dLogp*inv, cfg.ValueCoef*vDiff*inv, cfg.EntropyCoef*inv)
	}
	nn.ClipGrads(a.params, cfg.MaxGradNorm)
	opt.Step(a.params)
	return totalLoss * inv
}

// backward pushes gradients for one sample through heads, trunk and
// embedder, reading the activations applyOut left in s; logpOf has already
// put the discrete probabilities in s's training buffers. dLogp multiplies
// dlogpi/dparams; dValue is dLoss/dv; entCoef scales the entropy-bonus
// gradient. Each head's input gradient is computed in dx and then added
// into dFeat, VF head first, then IF, then value, so the sums round the
// same way in every run.
func (a *Agent) backward(s *inferScratch, out evalOut, tr *transition, dLogp, dValue, entCoef float64) {
	feat := out.feat
	t := a.trainBufs(s)
	dFeat := t.dFeat
	clear(dFeat)

	switch a.Cfg.Space {
	case Discrete:
		// d(logp)/dlogits = onehot - softmax; entropy gradient per head.
		pv, pi := t.pvf, t.pif
		hv := nn.CategoricalEntropy(pv)
		hi := nn.CategoricalEntropy(pi)
		for j := range pv {
			oneHot := 0.0
			if j == tr.vfIdx {
				oneHot = 1
			}
			t.dvf[j] = dLogp*(oneHot-pv[j]) + entCoef*pv[j]*(out.logpVF[j]+hv)
		}
		for j := range pi {
			oneHot := 0.0
			if j == tr.ifIdx {
				oneHot = 1
			}
			t.dif[j] = dLogp*(oneHot-pi[j]) + entCoef*pi[j]*(out.logpIF[j]+hi)
		}
		addInto(dFeat, a.headVF.Backward(t.dx, feat, t.dvf))
		addInto(dFeat, a.headIF.Backward(t.dx, feat, t.dif))
	case Continuous1:
		sigma := math.Exp(a.logStd.W[0])
		z := (tr.raw[0] - out.meanVF) / sigma
		// dlogp/dmean = z/sigma ; dlogp/dlogstd = z^2 - 1 ; dH/dlogstd = 1.
		t.dvf[0] = dLogp * z / sigma
		addInto(dFeat, a.headVF.Backward(t.dx, feat, t.dvf))
		a.logStd.G[0] += dLogp*(z*z-1) - entCoef
	case Continuous2:
		s0 := math.Exp(a.logStd.W[0])
		s1 := math.Exp(a.logStd.W[1])
		z0 := (tr.raw[0] - out.meanVF) / s0
		z1 := (tr.raw[1] - out.meanIF) / s1
		t.dvf[0] = dLogp * z0 / s0
		t.dif[0] = dLogp * z1 / s1
		addInto(dFeat, a.headVF.Backward(t.dx, feat, t.dvf))
		addInto(dFeat, a.headIF.Backward(t.dx, feat, t.dif))
		a.logStd.G[0] += dLogp*(z0*z0-1) - entCoef
		a.logStd.G[1] += dLogp*(z1*z1-1) - entCoef
	}
	dv := [1]float64{dValue}
	addInto(dFeat, a.headV.Backward(t.dx, feat, dv[:]))

	dObs := a.trunk.Backward(s.trunk, out.obs, dFeat)
	a.emb.Backward(s.emb, tr.sample, dObs)
}

// Predict returns the greedy action (deterministic inference, the deployment
// mode the paper describes: "a single step only, similar to the baseline
// cost model"). It embeds the sample and decides as PredictObs does, through
// pooled scratch, so the in-process greedy rule is the served one, and it is
// safe for concurrent callers.
func (a *Agent) Predict(sample int) (vf, ifc int) {
	s := a.getScratch()
	defer a.putScratch(s)
	return a.greedy(s, a.embed(s, sample))
}

// PredictObs returns the greedy action for an already-computed observation
// vector. It runs the forward (apply) through pooled scratch, so
// steady-state calls perform zero heap allocations and touch no per-agent
// mutable state beyond the pool: any number of goroutines may call it
// concurrently on a trained agent (provided no concurrent Train step is
// mutating the weights).
func (a *Agent) PredictObs(vec []float64) (vf, ifc int) {
	s := a.getScratch()
	defer a.putScratch(s)
	return a.greedy(s, vec)
}

// greedy decides the most likely action for an observation through s.
func (a *Agent) greedy(s *inferScratch, vec []float64) (vf, ifc int) {
	a.apply(s, vec)
	switch a.Cfg.Space {
	case Discrete:
		return a.Cfg.VFs[nn.Argmax(s.vf)], a.Cfg.IFs[nn.Argmax(s.ifc)]
	case Continuous1:
		vi, ii := a.decodeJoint(s.vf[0])
		return a.Cfg.VFs[vi], a.Cfg.IFs[ii]
	default:
		vi := clampRound(s.vf[0], len(a.Cfg.VFs))
		ii := clampRound(s.ifc[0], len(a.Cfg.IFs))
		return a.Cfg.VFs[vi], a.Cfg.IFs[ii]
	}
}

// Params returns every trainable parameter of the policy, including the
// embedder's — the set a model snapshot must persist.
func (a *Agent) Params() []*nn.Param { return a.params }

func normalizeAdvantages(batch []*transition) {
	if len(batch) < 2 {
		return
	}
	mean := 0.0
	for _, tr := range batch {
		mean += tr.adv
	}
	mean /= float64(len(batch))
	varSum := 0.0
	for _, tr := range batch {
		d := tr.adv - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum/float64(len(batch))) + 1e-8
	for _, tr := range batch {
		tr.adv = (tr.adv - mean) / std
	}
}

// shuffleWith is a Fisher-Yates shuffle driven by an explicit RNG.
func shuffleWith(batch []*transition, rng *rand.Rand) {
	for i := len(batch) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		batch[i], batch[j] = batch[j], batch[i]
	}
}

func addInto(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
