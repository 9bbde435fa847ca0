package ranker

import (
	"math"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/features"
	"neurovec/internal/nn"
)

// toyTarget has an analytic optimum the model must learn: normalized time is
// a bowl around a per-class best action.
type toyTarget struct {
	classes int
	vfs     []int
	ifs     []int
	optVF   []int
	optIF   []int
}

func (t *toyTarget) NumSamples() int { return t.classes * 3 }

func (t *toyTarget) NormTime(sample, vf, ifc int) float64 {
	c := sample % t.classes
	dv := float64(idx(t.vfs, vf) - idx(t.vfs, t.optVF[c]))
	di := float64(idx(t.ifs, ifc) - idx(t.ifs, t.optIF[c]))
	return 0.2 + 0.1*(dv*dv+di*di)
}

func idx(a []int, v int) int {
	for i, x := range a {
		if x == v {
			return i
		}
	}
	return -1
}

// classEmbedder emits one-hot class observations with no parameters.
type classEmbedder struct{ classes int }

func (e *classEmbedder) NewScratch() any { return nil }
func (e *classEmbedder) Embed(_ any, sample int) []float64 {
	v := make([]float64, e.classes)
	v[sample%e.classes] = 1
	return v
}
func (e *classEmbedder) Backward(any, int, []float64) {}
func (e *classEmbedder) Params() []*nn.Param          { return nil }
func (e *classEmbedder) Dim() int                     { return e.classes }

func toySetup() (*classEmbedder, *toyTarget, Config) {
	vfs := []int{1, 2, 4, 8, 16, 32, 64}
	ifs := []int{1, 2, 4, 8, 16}
	tgt := &toyTarget{
		classes: 3,
		vfs:     vfs, ifs: ifs,
		optVF: []int{64, 1, 8},
		optIF: []int{8, 1, 2},
	}
	cfg := DefaultConfig(vfs, ifs)
	cfg.Steps = 12000
	cfg.Hidden = []int{32, 32}
	cfg.LR = 3e-3
	return &classEmbedder{classes: 3}, tgt, cfg
}

func TestRankerLearnsCostSurface(t *testing.T) {
	emb, tgt, cfg := toySetup()
	m := New(emb, cfg)
	curve := m.Train(tgt)
	if len(curve) != 20 {
		t.Fatalf("curve checkpoints = %d, want 20", len(curve))
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", curve[0], curve[len(curve)-1])
	}
	// The learned cost model must recover the optimum for each class.
	correct := 0
	for c := 0; c < tgt.classes; c++ {
		vf, ifc := m.Best(c)
		if vf == tgt.optVF[c] && ifc == tgt.optIF[c] {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("recovered optimum on %d/3 classes", correct)
	}
}

func TestRankerPredictTimeOrdering(t *testing.T) {
	emb, tgt, cfg := toySetup()
	m := New(emb, cfg)
	m.Train(tgt)
	// Class 1's optimum is (1,1); a far action must predict slower.
	near := m.PredictTime(1, 1, 1)
	far := m.PredictTime(1, 64, 16)
	if near >= far {
		t.Errorf("predicted time near optimum (%.3f) not below far point (%.3f)", near, far)
	}
}

func TestRankerEndToEndOnFramework(t *testing.T) {
	// Integration: train the learned cost model through the real code2vec
	// embedder against the real simulator, then check it beats the baseline
	// cost model on its training loops.
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 48
	cfg.Embed.EmbedDim = 12
	cfg.Embed.MaxContexts = 40
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 40, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	rc := DefaultConfig(cfg.Arch.VFs(), cfg.Arch.IFs())
	rc.Steps = 20000
	rc.Hidden = []int{48, 48}
	rc.LR = 1e-3
	m := New(fw.CodeEmbedder(), rc)
	curve := m.Train(fw)
	if curve[len(curve)-1] >= curve[0] {
		t.Fatalf("end-to-end loss did not decrease: %v -> %v", curve[0], curve[len(curve)-1])
	}

	var modelCycles, baseCycles float64
	for i := 0; i < fw.NumSamples(); i++ {
		vf, ifc := m.Best(i)
		modelCycles += fw.Cycles(i, vf, ifc)
		baseCycles += fw.BaselineCycles(i)
	}
	if modelCycles > baseCycles*1.05 {
		t.Errorf("learned cost model (%.0f cycles) clearly worse than baseline (%.0f)", modelCycles, baseCycles)
	}
	t.Logf("learned cost model vs baseline: %.3fx", baseCycles/modelCycles)
}

func TestRankerWithFrozenFeatures(t *testing.T) {
	// The ranker also runs on the hand-crafted features (no end-to-end
	// gradient); it should still learn something.
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 30, Seed: 6})); err != nil {
		t.Fatal(err)
	}
	emb := &features.Embedder{Loops: fw.UnitLoops()}
	rc := DefaultConfig(cfg.Arch.VFs(), cfg.Arch.IFs())
	rc.Steps = 4000
	rc.Hidden = []int{32, 32}
	rc.LR = 2e-3
	m := New(emb, rc)
	curve := m.Train(fw)
	if math.IsNaN(curve[len(curve)-1]) || curve[len(curve)-1] >= curve[0] {
		t.Fatalf("feature-based ranker loss: %v -> %v", curve[0], curve[len(curve)-1])
	}
}

func TestBestAlwaysInActionSpace(t *testing.T) {
	emb, tgt, cfg := toySetup()
	cfg.Steps = 500
	m := New(emb, cfg)
	m.Train(tgt)
	for s := 0; s < tgt.NumSamples(); s++ {
		vf, ifc := m.Best(s)
		if idx(cfg.VFs, vf) < 0 || idx(cfg.IFs, ifc) < 0 {
			t.Fatalf("Best returned (%d,%d) outside the action space", vf, ifc)
		}
	}
}
