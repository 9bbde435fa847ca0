package rl

import (
	"math"
	"math/rand"
	"testing"

	"neurovec/internal/nn"
)

// scalarDense is the plain reference for a dense layer: each output is
// B[o] plus W[o][i]·x[i] summed in i order.
func scalarDense(d *nn.Dense, x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := range y {
		s := d.B.W[o]
		for i, xv := range x {
			s += d.W.W[o*d.In+i] * xv
		}
		y[o] = s
	}
	return y
}

// referencePredictObs is PredictObs over plain scalar loops — tanh after
// every trunk layer, then the heads — used to pin bit-identical parity.
func referencePredictObs(a *Agent, vec []float64) (int, int) {
	feat := vec
	for _, d := range a.trunk.Layers {
		feat = scalarDense(d, feat)
		for i, v := range feat {
			feat[i] = math.Tanh(v)
		}
	}
	switch a.Cfg.Space {
	case Discrete:
		return a.Cfg.VFs[nn.Argmax(scalarDense(a.headVF, feat))],
			a.Cfg.IFs[nn.Argmax(scalarDense(a.headIF, feat))]
	case Continuous1:
		vi, ii := a.decodeJoint(scalarDense(a.headVF, feat)[0])
		return a.Cfg.VFs[vi], a.Cfg.IFs[ii]
	default:
		vi := clampRound(scalarDense(a.headVF, feat)[0], len(a.Cfg.VFs))
		ii := clampRound(scalarDense(a.headIF, feat)[0], len(a.Cfg.IFs))
		return a.Cfg.VFs[vi], a.Cfg.IFs[ii]
	}
}

func TestPredictObsPooledParity(t *testing.T) {
	for _, space := range []SpaceKind{Discrete, Continuous1, Continuous2} {
		emb, _, cfg := newToy()
		cfg.Space = space
		agent := NewAgent(emb, cfg)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 25; trial++ {
			vec := make([]float64, emb.Dim())
			for i := range vec {
				vec[i] = rng.NormFloat64()
			}
			wantVF, wantIF := referencePredictObs(agent, vec)
			gotVF, gotIF := agent.PredictObs(vec)
			if gotVF != wantVF || gotIF != wantIF {
				t.Fatalf("%v: PredictObs = (%d,%d), want (%d,%d)", space, gotVF, gotIF, wantVF, wantIF)
			}
		}
	}
}

// TestPredictObsZeroAllocs is the serving-path invariant: after the pool is
// warm, a greedy decision heap-allocates nothing.
func TestPredictObsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	emb, _, cfg := newToy()
	agent := NewAgent(emb, cfg)
	vec := make([]float64, emb.Dim())
	for i := range vec {
		vec[i] = float64(i) * 0.1
	}
	agent.PredictObs(vec) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { agent.PredictObs(vec) }); allocs != 0 {
		t.Fatalf("PredictObs allocates %v per run after warm-up, want 0", allocs)
	}
}

// TestPredictObsConcurrent exercises the pool under contention; run with
// -race this also proves scratches are never shared between callers.
func TestPredictObsConcurrent(t *testing.T) {
	emb, _, cfg := newToy()
	agent := NewAgent(emb, cfg)
	vec := make([]float64, emb.Dim())
	vec[0] = 1
	wantVF, wantIF := agent.PredictObs(vec)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				if vf, ifc := agent.PredictObs(vec); vf != wantVF || ifc != wantIF {
					done <- false
					return
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent PredictObs diverged from the serial answer")
		}
	}
}
