package experiments

import (
	"testing"

	"neurovec/internal/core"
)

func TestAblationEmbedding(t *testing.T) {
	curves := AblationEmbedding(reference(), QuickOptions())
	c2v := curves.Final("code2vec (end-to-end)", 4)
	feat := curves.Final("hand-crafted features", 4)
	t.Logf("final reward: code2vec=%.3f features=%.3f", c2v, feat)
	if len(curves.RewardMean) != 2 {
		t.Fatalf("expected 2 curves, got %d", len(curves.RewardMean))
	}
	// Both representations must learn something.
	for label, series := range curves.RewardMean {
		if series[len(series)-1] <= series[0] {
			t.Errorf("%s: reward did not improve (%.3f -> %.3f)", label, series[0], series[len(series)-1])
		}
	}
	// The learned embedding should not lose badly to fixed features (the
	// paper's claim is that it captures strictly more).
	if c2v < feat-0.1 {
		t.Errorf("code2vec (%.3f) clearly below hand-crafted features (%.3f)", c2v, feat)
	}
	checkGolden(t, "ablation_embedding", curves)
}

// TestAblationCompilePenalty checks the Section 3.4 ablation. In quick mode
// its two rows are identical, so the "penalty reduces blow-up" check passes
// on equality: no quick rollout samples one of the corpus's 12 over-budget
// (unit, VF, IF) triples. The test checks that the corpus holds one, so the
// ablation can differ.
func TestAblationCompilePenalty(t *testing.T) {
	o := QuickOptions()
	fw := o.framework(core.DefaultConfig(), o.penaltySet())
	overBudget := false
	for i := 0; i < fw.NumSamples() && !overBudget; i++ {
		for _, vf := range fw.Cfg.Arch.VFs() {
			for _, ifc := range fw.Cfg.Arch.IFs() {
				overBudget = overBudget || fw.CompileBlowup(i, vf, ifc) > 10
			}
		}
	}
	if !overBudget {
		t.Error("no (unit, VF, IF) triple of the quick corpus exceeds the 10x compile budget; the ablation cannot differ")
	}

	tab := AblationCompilePenalty(o)
	onBlow, _ := tab.Get("penalty=-9 (paper)", "mean-compile-blowup")
	offBlow, _ := tab.Get("penalty off", "mean-compile-blowup")
	onRate, _ := tab.Get("penalty=-9 (paper)", "timeout-rate")
	offRate, _ := tab.Get("penalty off", "timeout-rate")
	t.Logf("blowup: penalty=%.2fx off=%.2fx; timeout rate: penalty=%.2f off=%.2f",
		onBlow, offBlow, onRate, offRate)
	// With the penalty active the greedy policy must stay within the
	// compile budget more often than without it.
	if onBlow > offBlow+1e-9 && onRate > offRate+1e-9 {
		t.Errorf("penalty did not reduce compile blow-up: on=%.2f/%.2f off=%.2f/%.2f",
			onBlow, onRate, offBlow, offRate)
	}
	if onRate > 0.25 {
		t.Errorf("timeout rate with penalty = %.2f, agent failed to learn the budget", onRate)
	}
	checkGolden(t, "ablation_compile_penalty", tab)
}

func TestAblationJointAgent(t *testing.T) {
	curves := AblationJointAgent(reference(), QuickOptions())
	joint := curves.Final("joint", 4)
	indep := curves.Final("independent", 4)
	t.Logf("final reward: joint=%.3f independent=%.3f", joint, indep)
	if len(curves.RewardMean["independent"]) == 0 {
		t.Fatal("independent curve missing")
	}
	// The paper found the joint agent performs better; allow a small quick-
	// mode tolerance but fail if independent clearly dominates.
	if joint < indep-0.08 {
		t.Errorf("joint agent (%.3f) clearly below independent agents (%.3f); paper found the opposite", joint, indep)
	}
	checkGolden(t, "ablation_joint_agent", curves)
}
