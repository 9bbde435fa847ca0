package experiments

import (
	"neurovec/internal/core"
	"neurovec/internal/rl"
)

// AblationJointAgent reproduces the design decision of the paper's Section
// 3.3: "Initially we trained two agents, one that predicts VF and the other
// predicts IF independently. However, from our experiment combining these
// two agents into one agent with a single neural network that predicts the
// VF and IF simultaneously performed better."
//
// The joint configuration is the framework's normal agent. The independent
// configuration trains two single-factor agents in alternating rounds: the
// VF agent's rewards are computed with the IF agent's current greedy choice
// and vice versa — each agent sees the other only through the environment,
// exactly the coupling the joint network internalises. The joint curves are
// ref, the Reference curves.
func AblationJointAgent(ref *rl.Stats, o Options) *Curves {
	curves := NewCurves("Ablation: joint (VF,IF) agent vs two independent agents")
	curves.RewardMean["joint"] = ref.RewardMean
	curves.Loss["joint"] = ref.Loss

	// ---- Two independent agents ----
	fw := o.framework(core.DefaultConfig(), o.referenceSet())
	base := o.rlConfig(fw.Cfg.Arch)

	vfCfg := base
	vfCfg.IFs = []int{1} // this head is degenerate; the env supplies real IF
	ifCfg := base
	ifCfg.VFs = []int{1}

	vfAgent := rl.NewAgent(fw.CodeEmbedder(), vfCfg)
	ifAgent := rl.NewAgent(fw.CodeEmbedder(), ifCfg)

	vfEnv := &crossEnv{fw: fw, pickIF: func(s int) int { _, ifc := ifAgent.Predict(s); return ifc }}
	ifEnv := &crossEnv{fw: fw, pickVF: func(s int) int { vf, _ := vfAgent.Predict(s); return vf }}

	// Alternate training rounds with the same total environment budget as
	// the joint agent (half the iterations each).
	rounds := base.Iterations / 4
	if rounds < 1 {
		rounds = 1
	}
	var rewardCurve, lossCurve []float64
	remaining := base.Iterations
	for remaining > 0 {
		k := rounds
		if k > remaining {
			k = remaining
		}
		half := k / 2
		if half < 1 {
			half = 1
		}
		vfAgent.Cfg.Iterations = half
		sv := vfAgent.Train(vfEnv)
		ifAgent.Cfg.Iterations = k - half
		var si *rl.Stats
		if k-half > 0 {
			si = ifAgent.Train(ifEnv)
		}
		rewardCurve = append(rewardCurve, sv.RewardMean...)
		lossCurve = append(lossCurve, sv.Loss...)
		if si != nil {
			rewardCurve = append(rewardCurve, si.RewardMean...)
			lossCurve = append(lossCurve, si.Loss...)
		}
		remaining -= k
	}
	curves.RewardMean["independent"] = rewardCurve
	curves.Loss["independent"] = lossCurve
	return curves
}

// crossEnv routes one agent's single-factor actions through the other
// agent's greedy choice for the missing factor.
type crossEnv struct {
	fw     *core.Framework
	pickVF func(sample int) int
	pickIF func(sample int) int
}

func (e *crossEnv) NumSamples() int { return e.fw.NumSamples() }

func (e *crossEnv) Reward(sample, vf, ifc int) float64 {
	if e.pickVF != nil {
		vf = e.pickVF(sample)
	}
	if e.pickIF != nil {
		ifc = e.pickIF(sample)
	}
	return e.fw.Reward(sample, vf, ifc)
}
