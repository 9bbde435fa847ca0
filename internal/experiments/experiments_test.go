package experiments

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/evalharness"
	"neurovec/internal/rl"
)

// Get returns the value at (rowLabel, col) and whether it exists.
func (t *Table) Get(rowLabel, col string) (float64, bool) {
	for _, r := range t.rows {
		if r.label == rowLabel {
			v, ok := r.values[col]
			return v, ok
		}
	}
	return 0, false
}

// Rows returns the row labels in insertion order.
func (t *Table) Rows() []string {
	out := make([]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.label
	}
	return out
}

var updateGolden = flag.Bool("update", false, "rewrite the figure golden files")

// trained is the quick-mode framework Figures 7, 8 and 9 share, trained on
// first use.
var trained = sync.OnceValue(func() *core.Framework { return Train(QuickOptions()) })

// reference is the quick-mode Reference training Figures 5 and 6 and the
// embedding and joint-agent ablations share, trained on first use.
var reference = sync.OnceValue(func() *rl.Stats { return Reference(QuickOptions()) })

// checkGolden compares a figure with testdata/<name>.golden. A *Table is
// pinned by its rendering plus every cell at full precision; a *Curves by
// its rendering plus each label's reward, loss and step series at full
// precision. Figures 1 and 2 run entirely on loaded units, so a drift there
// means the unit front end changed. Every other golden also trains an agent
// (Figures 7, 8 and 9 also run the Polly analogue), so a drift there can
// come from training, the comparators or Polly's transforms.
// Regenerate with:
//
//	go test ./internal/experiments -run 'TestFig|TestTrainingEfficiency|TestAblation' -update
func checkGolden(t *testing.T, name string, fig any) {
	t.Helper()
	var b strings.Builder
	switch fig := fig.(type) {
	case *Table:
		b.WriteString(fig.String())
		for _, row := range fig.Rows() {
			for _, col := range fig.Columns {
				if v, ok := fig.Get(row, col); ok {
					fmt.Fprintf(&b, "%s\t%s\t%v\n", row, col, v)
				}
			}
		}
	case *Curves:
		b.WriteString(fig.String())
		labels := make([]string, 0, len(fig.RewardMean))
		for l := range fig.RewardMean {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, "%s\treward\t%v\n", l, fig.RewardMean[l])
			fmt.Fprintf(&b, "%s\tloss\t%v\n", l, fig.Loss[l])
			fmt.Fprintf(&b, "%s\tsteps\t%v\n", l, fig.Steps[l])
		}
	default:
		t.Fatalf("checkGolden: unsupported figure type %T", fig)
	}
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("%s drifted from %s.\nIf the change is deliberate, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			name, path, b.String(), want)
	}
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1(QuickOptions())
	if len(tab.Rows()) != 7 || len(tab.Columns) != 5 {
		t.Fatalf("grid = %dx%d, want 7x5", len(tab.Rows()), len(tab.Columns))
	}
	// The baseline's own pick normalizes to 1.0.
	if v, ok := tab.Get("VF=4", "IF=2"); !ok || v < 0.999 || v > 1.001 {
		t.Errorf("baseline cell = %v, want 1.0", v)
	}
	// Scalar execution is clearly below baseline.
	if v, _ := tab.Get("VF=1", "IF=1"); v >= 1 {
		t.Errorf("scalar cell = %v, want < 1", v)
	}
	// A majority of points beat the baseline (paper: 26/35).
	better := 0
	for _, row := range tab.Rows() {
		for _, col := range tab.Columns {
			if v, ok := tab.Get(row, col); ok && v > 1.0 {
				better++
			}
		}
	}
	if better < 14 {
		t.Errorf("points above baseline = %d/35, want a majority", better)
	}
	if s := tab.String(); !strings.Contains(s, "Figure 1") {
		t.Error("table renders without title")
	}
	checkGolden(t, "fig1", tab)
}

func TestFig2AllAtLeastBaseline(t *testing.T) {
	tab := Fig2(QuickOptions())
	if len(tab.Rows()) != 17 {
		t.Fatalf("rows = %d, want 17 suite kernels", len(tab.Rows()))
	}
	for _, rowName := range tab.Rows() {
		v, _ := tab.Get(rowName, "brute/baseline")
		if v < 0.999 {
			t.Errorf("%s: brute force %.3fx below baseline — impossible by construction", rowName, v)
		}
	}
	if m := tab.Mean("brute/baseline"); m < 1.05 {
		t.Errorf("mean brute/baseline = %.3fx, want a visible gap (paper: up to 1.5x)", m)
	}
	checkGolden(t, "fig2", tab)
}

func TestFig5HyperparamSweep(t *testing.T) {
	curves := Fig5(reference(), QuickOptions())
	for _, label := range []string{
		"lr=0.005", "lr=0.0005", "lr=5e-05",
		"net=16x16", "net=32x32", "net=64x64",
		"batch=64", "batch=128", "batch=256",
	} {
		if len(curves.RewardMean[label]) == 0 {
			t.Errorf("missing curve for %s", label)
		}
	}
	checkGolden(t, "fig5", curves)
}

func TestFig6DiscreteBest(t *testing.T) {
	curves := Fig6(reference(), QuickOptions())
	d := curves.Final("discrete", 4)
	c1 := curves.Final("continuous-1", 4)
	c2 := curves.Final("continuous-2", 4)
	if d < c1 && d < c2 {
		t.Errorf("discrete (%.3f) below both continuous spaces (%.3f, %.3f); paper has discrete best", d, c1, c2)
	}
	for _, label := range []string{"discrete", "continuous-1", "continuous-2"} {
		if len(curves.RewardMean[label]) == 0 {
			t.Errorf("missing curve for %s", label)
		}
	}
	checkGolden(t, "fig6", curves)
}

func TestFig7Ordering(t *testing.T) {
	tab := Fig7(trained(), QuickOptions())
	if len(tab.Rows()) != 12 {
		t.Fatalf("rows = %d, want 12 benchmarks", len(tab.Rows()))
	}
	brute := tab.GeoMean("brute")
	rlG := tab.GeoMean("RL")
	nns := tab.GeoMean("NNS")
	tree := tab.GeoMean("tree")
	randG := tab.GeoMean("random")

	t.Logf("geomeans: brute=%.3f RL=%.3f NNS=%.3f tree=%.3f polly=%.3f random=%.3f",
		brute, rlG, nns, tree, tab.GeoMean("polly"), randG)

	if brute < 1.2 {
		t.Errorf("brute geomean = %.3fx; the headroom over the baseline is missing", brute)
	}
	if rlG <= 1.0 {
		t.Errorf("RL geomean = %.3fx, must beat the baseline", rlG)
	}
	if rlG > brute*1.001 {
		t.Errorf("RL (%.3f) exceeds brute force (%.3f) — impossible", rlG, brute)
	}
	// Paper: RL within a few percent of brute force. Quick mode is looser.
	if rlG < brute*0.75 {
		t.Errorf("RL (%.3f) too far below brute (%.3f) even for quick mode", rlG, brute)
	}
	if nns <= 1.0 || tree <= 1.0 {
		t.Errorf("supervised methods below baseline: NNS=%.3f tree=%.3f", nns, tree)
	}
	// Random search performs much worse than the baseline (paper).
	if randG >= 1.0 {
		t.Errorf("random geomean = %.3fx, want < 1 like the paper", randG)
	}
	// Benchmark #10 (fusible pair): Polly beats brute-force VF/IF search.
	p10, _ := tab.Get("bench10_fusible", "polly")
	b10, _ := tab.Get("bench10_fusible", "brute")
	if p10 <= b10 {
		t.Errorf("bench10: polly (%.3f) should beat brute force (%.3f) via fusion", p10, b10)
	}
	checkGolden(t, "fig7", tab)
}

func TestFig8PollyAndRL(t *testing.T) {
	tab := Fig8(trained(), QuickOptions())
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d, want 6 PolyBench kernels", len(tab.Rows()))
	}
	rlG := tab.GeoMean("RL")
	pollyG := tab.GeoMean("polly")
	comboG := tab.GeoMean("polly+RL")
	t.Logf("geomeans: polly=%.3f RL=%.3f polly+RL=%.3f", pollyG, rlG, comboG)

	if rlG <= 1.0 {
		t.Errorf("RL geomean on PolyBench = %.3f, want > 1 (paper: 2.08x)", rlG)
	}
	if pollyG <= 1.0 {
		t.Errorf("Polly geomean = %.3f, want > 1 (paper: 1.79x implied)", pollyG)
	}
	// The combination beats either alone (paper: 2.92x).
	if comboG < rlG*0.999 && comboG < pollyG*0.999 {
		t.Errorf("polly+RL (%.3f) below both components (%.3f, %.3f)", comboG, rlG, pollyG)
	}
	// Polly must win at least one kernel and RL at least one (paper: RL
	// wins 3/6).
	pollyWins, rlWins := 0, 0
	for _, r := range tab.Rows() {
		p, _ := tab.Get(r, "polly")
		q, _ := tab.Get(r, "RL")
		if p > q {
			pollyWins++
		} else if q > p {
			rlWins++
		}
	}
	if pollyWins == 0 || rlWins == 0 {
		t.Errorf("wins split polly=%d RL=%d, want both non-zero (paper: 3/3)", pollyWins, rlWins)
	}
	checkGolden(t, "fig8", tab)
}

func TestFig9SmallUniformGains(t *testing.T) {
	tab := Fig9(trained(), QuickOptions())
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d, want 6 MiBench programs", len(tab.Rows()))
	}
	rlG := tab.GeoMean("RL")
	t.Logf("geomeans: polly=%.3f RL=%.3f", tab.GeoMean("polly"), rlG)
	if rlG <= 1.0 {
		t.Errorf("RL geomean = %.3f, want > 1 (paper: 1.1x)", rlG)
	}
	if rlG > 1.6 {
		t.Errorf("RL geomean = %.3f on loop-minor programs; Amdahl dilution missing (paper: 1.1x)", rlG)
	}
	// RL at least matches Polly on these (paper: beats it on all).
	if rlG < tab.GeoMean("polly")*0.95 {
		t.Errorf("RL (%.3f) below Polly (%.3f) on MiBench", rlG, tab.GeoMean("polly"))
	}
	checkGolden(t, "fig9", tab)
}

// TestFigsMatchEval holds the figures to the evaluator neurovec eval runs:
// on the same trained framework, each file's RL speedup is its figure's RL
// cell, and on Figure 7 the oracle's speedup is the brute cell, bit for bit.
func TestFigsMatchEval(t *testing.T) {
	fw := trained()
	o := QuickOptions()
	h := evalharness.New(fw)
	for _, fig := range []struct {
		tab    *Table
		suite  []dataset.Benchmark
		oracle bool
	}{
		{Fig7(fw, o), dataset.EvalBenchmarks(), true},
		{Fig8(fw, o), dataset.PolyBench(), false},
		{Fig9(fw, o), dataset.MiBench(), false},
	} {
		rep, err := h.Run(context.Background(), evalharness.FromBenchmarks("fig", fig.suite), evalharness.Options{Policy: "rl", Seed: o.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Files) != len(fig.tab.Rows()) {
			t.Fatalf("%s: eval scored %d files, the figure has %d rows", fig.tab.Title, len(rep.Files), len(fig.tab.Rows()))
		}
		for _, f := range rep.Files {
			if f.Error != "" {
				t.Fatalf("%s: eval failed: %s", f.Name, f.Error)
			}
			cell, ok := fig.tab.Get(f.Name, "RL")
			if !ok || math.Float64bits(f.Speedup) != math.Float64bits(cell) {
				t.Errorf("%s: eval speedup %v, figure RL cell %v", f.Name, f.Speedup, cell)
			}
			if !fig.oracle {
				continue
			}
			if cell, ok := fig.tab.Get(f.Name, "brute"); !ok || math.Float64bits(f.OracleSpeedup) != math.Float64bits(cell) {
				t.Errorf("%s: eval oracle speedup %v, figure brute cell %v", f.Name, f.OracleSpeedup, cell)
			}
		}
	}
}

func TestTrainingEfficiencyTable(t *testing.T) {
	tab := TrainingEfficiency(QuickOptions())
	ppo, _ := tab.Get("PPO (one compile per step)", "samples")
	brute, _ := tab.Get("brute force / supervised labels", "samples")
	if brute != ppo*35 {
		t.Fatalf("brute = %v, want 35x PPO's %v", brute, ppo)
	}
	checkGolden(t, "eff", tab)
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"x", "y"}}
	tab.Add("r1", map[string]float64{"x": 1.5, "y": 2})
	tab.Add("r2", map[string]float64{"x": 3})
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "name,x,y\n") {
		t.Fatalf("csv header wrong:\n%s", got)
	}
	if !strings.Contains(got, "r1,1.5,2") {
		t.Fatalf("csv row missing:\n%s", got)
	}
	if !strings.Contains(got, "r2,3,\n") {
		t.Fatalf("missing cell should be empty:\n%s", got)
	}
}

func TestCurvesCSV(t *testing.T) {
	c := NewCurves("t")
	c.RewardMean["a"] = []float64{-0.5, 0.1}
	c.Loss["a"] = []float64{1, 0.5}
	c.Steps["a"] = []int{100, 200}
	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "config,iteration,steps,reward_mean,loss") {
		t.Fatalf("curve csv header wrong:\n%s", got)
	}
	if !strings.Contains(got, "a,1,200,0.1,0.5") {
		t.Fatalf("curve csv row missing:\n%s", got)
	}
}

func TestTableUtilities(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a"}}
	tab.Add("r1", map[string]float64{"a": 2})
	tab.Add("r2", map[string]float64{"a": 8})
	if g := tab.GeoMean("a"); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if m := tab.Mean("a"); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if _, ok := tab.Get("r3", "a"); ok {
		t.Error("missing row should not be found")
	}
	if !strings.Contains(tab.String(), "r1") {
		t.Error("render missing rows")
	}
}
