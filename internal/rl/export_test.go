package rl

import "neurovec/internal/nn"

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// RolloutForward runs what a rollout slot computes before it samples: the
// embed and the policy forward, through pooled scratch.
func (a *Agent) RolloutForward(sample int) {
	s := a.getScratch()
	a.applyOut(s, sample)
	a.putScratch(s)
}

// Update runs the PPO update's gradient step over the whole of b as one
// minibatch.
func (a *Agent) Update(b *Batch, opt *nn.Adam) float64 { return a.update(b.transitions, opt) }
