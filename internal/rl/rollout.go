package rl

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"neurovec/internal/nn"
)

// Stream tags keep the per-purpose RNG streams of one (seed, iteration)
// disjoint: rollout slot s and the shuffle stream can never collide.
const (
	streamRollout uint64 = 1
	streamShuffle uint64 = 2
)

// mix64 is the splitmix64 finalizer — a cheap, well-distributed hash that
// turns structured coordinates (seed, iteration, slot) into independent
// seeds.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// deriveRNG builds an independent RNG from the base seed and a list of
// stream coordinates. Every distinct coordinate tuple yields a distinct,
// reproducible stream, which is what makes parallel collection deterministic:
// a slot's randomness depends only on its coordinates, never on which worker
// ran it or in what order.
func deriveRNG(base int64, coords ...uint64) *rand.Rand {
	z := mix64(uint64(base) ^ 0x9e3779b97f4a7c15)
	for _, c := range coords {
		z = mix64(z + 0x9e3779b97f4a7c15*(c+1))
	}
	return rand.New(rand.NewSource(int64(z)))
}

// Batch is one iteration's collected rollout: Cfg.Batch transitions in slot
// order plus their summary statistics. A Batch is consumed exactly once by
// UpdateBatch (advantages are normalized in place at collection time).
type Batch struct {
	transitions []*transition
	rewardMean  float64
}

// Len returns the number of transitions in the batch.
func (b *Batch) Len() int { return len(b.transitions) }

// RewardMean returns the mean environment reward over the batch — the
// per-iteration learning-curve point the paper plots.
func (b *Batch) RewardMean() float64 { return b.rewardMean }

// CollectBatch gathers Cfg.Batch bandit transitions from env, sharded over a
// worker pool of the given width (0 or negative means GOMAXPROCS). Slot b of
// iteration iter draws from an RNG derived from (seed, iter, b) and the
// forward passes read only weights, so the batch is
// bit-identical for any worker count — jobs changes only the wall time.
//
// The embedder's Embed and env.Reward must be safe for concurrent callers;
// the code2vec model and core.Framework satisfy this (their rollout-time
// paths only read configuration and weights).
func (a *Agent) CollectBatch(env Env, seed int64, iter, jobs int) *Batch {
	n := a.Cfg.Batch
	if n <= 0 {
		n = 1
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	batch := make([]*transition, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= n {
					return
				}
				batch[b] = a.rolloutSlot(env, seed, iter, b)
			}
		}()
	}
	wg.Wait()

	sum := 0.0
	for _, tr := range batch {
		sum += tr.reward
	}
	normalizeAdvantages(batch)
	return &Batch{transitions: batch, rewardMean: sum / float64(n)}
}

// rolloutSlot computes one transition from its own derived RNG stream,
// touching no per-agent mutable state.
func (a *Agent) rolloutSlot(env Env, seed int64, iter, slot int) *transition {
	rng := deriveRNG(seed, uint64(iter), streamRollout, uint64(slot))
	smp := rng.Intn(env.NumSamples())
	s := a.getScratch()
	out := a.applyOut(s, smp)
	vfIdx, ifIdx, raw, logp := a.sampleActionWith(s, out, rng)
	a.putScratch(s)
	r := env.Reward(smp, a.Cfg.VFs[vfIdx], a.Cfg.IFs[ifIdx])
	return &transition{
		sample: smp, vfIdx: vfIdx, ifIdx: ifIdx, raw: raw,
		oldLogp: logp, reward: r, adv: r - out.value,
	}
}

// applyOut evaluates the policy for a sample through s: the embedder, the
// trunk and every head. Discrete heads become log-probabilities in place.
// The returned slices alias s, which keeps everything the update's backward
// reads.
func (a *Agent) applyOut(s *inferScratch, sample int) evalOut {
	vec := a.embed(s, sample)
	feat := a.apply(s, vec)
	out := evalOut{obs: vec, feat: feat, value: a.headV.ApplyTo(s.v, feat)[0]}
	switch a.Cfg.Space {
	case Discrete:
		out.logpVF = nn.LogSoftmaxTo(s.vf, s.vf)
		out.logpIF = nn.LogSoftmaxTo(s.ifc, s.ifc)
	case Continuous1:
		out.meanVF = s.vf[0]
	case Continuous2:
		out.meanVF, out.meanIF = s.vf[0], s.ifc[0]
	}
	return out
}

// UpdateBatch performs Cfg.Epochs clipped-surrogate passes over a collected
// batch, accumulating gradients sequentially (PPO's updates are inherently
// ordered) and stepping opt per minibatch. The shuffle order comes from an
// RNG derived from (seed, iter), so the whole update is reproducible from
// the checkpointed coordinates alone. Returns the mean total loss across
// minibatch updates.
func (a *Agent) UpdateBatch(batch *Batch, opt *nn.Adam, seed int64, iter int) float64 {
	cfg := a.Cfg
	rng := deriveRNG(seed, uint64(iter), streamShuffle)
	trs := batch.transitions
	mb := cfg.MiniBatch
	if mb <= 0 || mb > len(trs) {
		mb = len(trs)
	}
	lossSum, lossN := 0.0, 0
	for ep := 0; ep < cfg.Epochs; ep++ {
		shuffleWith(trs, rng)
		for start := 0; start < len(trs); start += mb {
			end := start + mb
			if end > len(trs) {
				end = len(trs)
			}
			lossSum += a.update(trs[start:end], opt)
			lossN++
		}
	}
	if lossN == 0 {
		return 0
	}
	return lossSum / float64(lossN)
}
