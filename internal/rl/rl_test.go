package rl

import (
	"math"
	"testing"

	"neurovec/internal/nn"
)

// toyEmbedder returns a fixed one-hot observation per sample class; it has
// no trainable parameters, isolating the PPO machinery under test.
type toyEmbedder struct{ classes int }

func (e *toyEmbedder) NewScratch() any { return nil }
func (e *toyEmbedder) Embed(_ any, sample int) []float64 {
	v := make([]float64, e.classes)
	v[sample%e.classes] = 1
	return v
}
func (e *toyEmbedder) Backward(any, int, []float64) {}
func (e *toyEmbedder) Params() []*nn.Param          { return nil }
func (e *toyEmbedder) Dim() int                     { return e.classes }

// toyEnv rewards actions by closeness to a per-class optimum — a noiseless
// contextual bandit the agent must solve by reading the observation.
type toyEnv struct {
	classes int
	optVF   []int // optimal VF per class (actual factor values)
	optIF   []int
	vfs     []int
	ifs     []int
}

func (e *toyEnv) NumSamples() int { return e.classes * 4 }

func (e *toyEnv) Reward(sample, vf, ifc int) float64 {
	c := sample % e.classes
	dv := math.Abs(idxOf(e.vfs, vf) - idxOf(e.vfs, e.optVF[c]))
	di := math.Abs(idxOf(e.ifs, ifc) - idxOf(e.ifs, e.optIF[c]))
	return 1.0 - 0.25*dv - 0.25*di
}

func idxOf(arr []int, v int) float64 {
	for i, x := range arr {
		if x == v {
			return float64(i)
		}
	}
	return -1
}

func newToy() (*toyEmbedder, *toyEnv, Config) {
	vfs := []int{1, 2, 4, 8, 16, 32, 64}
	ifs := []int{1, 2, 4, 8, 16}
	env := &toyEnv{
		classes: 3,
		optVF:   []int{64, 1, 8},
		optIF:   []int{8, 1, 2},
		vfs:     vfs, ifs: ifs,
	}
	cfg := DefaultConfig(vfs, ifs)
	cfg.Batch = 128
	cfg.MiniBatch = 32
	cfg.Iterations = 40
	cfg.LR = 3e-3 // toy observations are tiny; the paper's 5e-5 is for 340-dim inputs
	cfg.Hidden = []int{32, 32}
	return &toyEmbedder{classes: 3}, env, cfg
}

func TestPPOLearnsContextualBandit(t *testing.T) {
	emb, env, cfg := newToy()
	agent := NewAgent(emb, cfg)
	stats := agent.Train(env)

	first := stats.RewardMean[0]
	last := stats.RewardMean[len(stats.RewardMean)-1]
	if last <= first {
		t.Fatalf("reward did not improve: %.3f -> %.3f", first, last)
	}
	if last < 0.8 {
		t.Errorf("final reward mean = %.3f, want >= 0.8 on a noiseless bandit", last)
	}
	// Greedy policy should hit the optimum for every class.
	correct := 0
	for c := 0; c < env.classes; c++ {
		vf, ifc := agent.Predict(c)
		if vf == env.optVF[c] && ifc == env.optIF[c] {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("greedy policy correct on %d/3 classes", correct)
	}
}

func TestStatsShapes(t *testing.T) {
	emb, env, cfg := newToy()
	cfg.Iterations = 5
	stats := NewAgent(emb, cfg).Train(env)
	if len(stats.RewardMean) != 5 || len(stats.Loss) != 5 || len(stats.Steps) != 5 {
		t.Fatalf("curve lengths = %d/%d/%d, want 5", len(stats.RewardMean), len(stats.Loss), len(stats.Steps))
	}
	if stats.Steps[4] != 5*cfg.Batch {
		t.Errorf("cumulative steps = %d, want %d", stats.Steps[4], 5*cfg.Batch)
	}
}

func TestTrainingIsDeterministicPerSeed(t *testing.T) {
	emb, env, cfg := newToy()
	cfg.Iterations = 6
	s1 := NewAgent(emb, cfg).Train(env)
	s2 := NewAgent(emb, cfg).Train(env)
	for i := range s1.RewardMean {
		if s1.RewardMean[i] != s2.RewardMean[i] {
			t.Fatalf("iteration %d differs: %v vs %v", i, s1.RewardMean[i], s2.RewardMean[i])
		}
	}
	cfg.Seed = 99
	s3 := NewAgent(emb, cfg).Train(env)
	diff := false
	for i := range s1.RewardMean {
		if s1.RewardMean[i] != s3.RewardMean[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical curves")
	}
}

func TestContinuousSpacesTrain(t *testing.T) {
	for _, space := range []SpaceKind{Continuous1, Continuous2} {
		emb, env, cfg := newToy()
		cfg.Space = space
		cfg.Iterations = 30
		stats := NewAgent(emb, cfg).Train(env)
		first, last := stats.RewardMean[0], stats.RewardMean[len(stats.RewardMean)-1]
		if last <= first {
			t.Errorf("%s: reward did not improve: %.3f -> %.3f", space, first, last)
		}
		for _, r := range stats.RewardMean {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%s: non-finite reward mean", space)
			}
		}
	}
}

func TestDiscreteOutperformsContinuous(t *testing.T) {
	// The paper's Figure 6 result: the discrete action space converges to a
	// better policy than either continuous encoding.
	final := map[SpaceKind]float64{}
	for _, space := range []SpaceKind{Discrete, Continuous1, Continuous2} {
		emb, env, cfg := newToy()
		cfg.Space = space
		cfg.Iterations = 40
		stats := NewAgent(emb, cfg).Train(env)
		// Average the last 5 iterations to reduce sampling noise.
		sum := 0.0
		for _, r := range stats.RewardMean[len(stats.RewardMean)-5:] {
			sum += r
		}
		final[space] = sum / 5
	}
	if final[Discrete] < final[Continuous1] && final[Discrete] < final[Continuous2] {
		t.Errorf("discrete (%.3f) underperforms both continuous spaces (%.3f, %.3f)",
			final[Discrete], final[Continuous1], final[Continuous2])
	}
	t.Logf("final reward: discrete=%.3f cont1=%.3f cont2=%.3f",
		final[Discrete], final[Continuous1], final[Continuous2])
}

func TestPredictIsDeterministic(t *testing.T) {
	emb, env, cfg := newToy()
	agent := NewAgent(emb, cfg)
	_ = agent.Train(env)
	v1, i1 := agent.Predict(0)
	v2, i2 := agent.Predict(0)
	if v1 != v2 || i1 != i2 {
		t.Fatal("greedy prediction not deterministic")
	}
}

func TestValueBaselineTracksRewards(t *testing.T) {
	emb, env, cfg := newToy()
	agent := NewAgent(emb, cfg)
	_ = agent.Train(env)
	// After convergence the value of each class should be near the reward
	// its (near-optimal) policy obtains, i.e. well above zero.
	for c := 0; c < 3; c++ {
		if v := value(agent, c); v < 0.2 {
			t.Errorf("class %d value = %.3f, want > 0.2 after convergence", c, v)
		}
	}
}

// value is the value baseline's estimate for a sample, through the
// rollout's forward.
func value(a *Agent, sample int) float64 {
	s := a.getScratch()
	defer a.putScratch(s)
	return a.applyOut(s, sample).value
}

func TestSpaceKindString(t *testing.T) {
	if Discrete.String() != "discrete" || Continuous1.String() != "continuous-1" {
		t.Fatal("SpaceKind names wrong")
	}
}

func TestClampRound(t *testing.T) {
	if clampRound(-3.2, 7) != 0 || clampRound(99, 7) != 6 || clampRound(3.4, 7) != 3 {
		t.Fatal("clampRound wrong")
	}
}
