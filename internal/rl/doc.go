// Package rl implements the deep-RL side of NeuroVectorizer: a contextual
// bandit trained with proximal policy optimization (PPO).
//
// The episode length is one, as in the paper: the agent observes a loop's
// code embedding, picks a (VF, IF) action, receives the normalized execution
// time improvement as reward, and the episode ends. PPO's clipped surrogate
// objective with a value baseline and an entropy bonus is used for updates,
// and the policy gradient flows through the trunk network *into the
// embedding generator*, training the representation end to end.
//
// Three action-space definitions are supported, matching the paper's
// Figure 6 ablation: a discrete space (two categorical heads indexing the
// VF and IF arrays — the best performer), a single continuous action
// encoding both factors, and two continuous actions.
//
// # Training loop
//
// There is one PPO loop. CollectBatch shards rollout collection (the
// expensive part — every transition costs a simulated compilation and run)
// across a worker pool, with each batch slot drawing from its own RNG stream
// derived from (seed, iteration, slot). Because no state is shared between
// slots, the collected batch — and therefore the whole training run — is
// bit-identical for any worker count, and a checkpoint needs only
// (seed, iteration) to reconstruct every stream on resume. UpdateBatch then
// applies the PPO epochs sequentially (gradient accumulation is inherently
// ordered) with a shuffle stream derived from (seed, iteration).
//
// Package neurovec/internal/trainer drives these two calls with
// checkpoints, resume and interleaved evaluation. Agent.Train and
// Agent.TrainIterations are the same loop in process, and they continue
// from the agent's own iteration count on every call.
//
// # Forward passes
//
// Each network has one forward. Rollout, Predict, PredictObs and the PPO
// update all run apply over a pooled scratch that holds the trunk's
// activations and the heads' outputs, plus the embedder's state
// (Embedder.NewScratch) and the sampling and gradient buffers, which are
// built on first use, so a scratch that only serves PredictObs holds none
// of them. The forward reads only weights, so concurrent callers are safe.
// The update backpropagates from what that forward left in the scratch, so
// the policy it differentiates is, bit for bit, the one that serves, and no
// layer caches activations of its own.
package rl
