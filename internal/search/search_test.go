package search

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	testVFs = []int{1, 2, 4, 8, 16, 32, 64}
	testIFs = []int{1, 2, 4, 8, 16}
)

func TestBruteForceFindsMinimum(t *testing.T) {
	// Quadratic bowl with minimum at (8, 4).
	eval := func(vf, ifc int) float64 {
		return math.Pow(float64(vf-8), 2) + math.Pow(float64(ifc-4), 2)
	}
	vf, ifc, best := BruteForce(testVFs, testIFs, eval)
	if vf != 8 || ifc != 4 || best != 0 {
		t.Fatalf("got (%d,%d,%g), want (8,4,0)", vf, ifc, best)
	}
}

func TestBruteForceTriesAll35(t *testing.T) {
	calls := 0
	BruteForce(testVFs, testIFs, func(int, int) float64 { calls++; return 1 })
	if calls != 35 {
		t.Fatalf("evaluations = %d, want 35", calls)
	}
}

func TestBruteForceNeverWorseProperty(t *testing.T) {
	// Brute force is at least as good as any single evaluation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		table := map[[2]int]float64{}
		for _, v := range testVFs {
			for _, c := range testIFs {
				table[[2]int{v, c}] = rng.Float64()
			}
		}
		eval := func(vf, ifc int) float64 { return table[[2]int{vf, ifc}] }
		_, _, best := BruteForce(testVFs, testIFs, eval)
		for _, s := range table {
			if best > s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInActionSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[[2]int]bool{}
	for i := 0; i < 2000; i++ {
		vf, ifc := Random(testVFs, testIFs, rng)
		if !contains(testVFs, vf) || !contains(testIFs, ifc) {
			t.Fatalf("out of space: (%d,%d)", vf, ifc)
		}
		seen[[2]int{vf, ifc}] = true
	}
	if len(seen) != 35 {
		t.Errorf("random covered %d/35 combinations over 2000 draws", len(seen))
	}
}

func contains(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

func TestNNSExactRecall(t *testing.T) {
	var n NNS
	n.Add([]float64{0, 0}, 4, 2)
	n.Add([]float64{10, 10}, 64, 8)
	if vf, ifc := n.Predict([]float64{0.1, -0.1}); vf != 4 || ifc != 2 {
		t.Fatalf("near origin: (%d,%d)", vf, ifc)
	}
	if vf, ifc := n.Predict([]float64{9, 11}); vf != 64 || ifc != 8 {
		t.Fatalf("near (10,10): (%d,%d)", vf, ifc)
	}
}

func TestNNSEmpty(t *testing.T) {
	var n NNS
	if vf, ifc := n.Predict([]float64{1}); vf != 1 || ifc != 1 {
		t.Fatal("empty NNS should return scalar factors")
	}
}

func TestNNSCopiesInputs(t *testing.T) {
	var n NNS
	x := []float64{1, 2}
	n.Add(x, 8, 2)
	x[0] = 99 // mutate after insert
	if vf, _ := n.Predict([]float64{1, 2}); vf != 8 {
		t.Fatal("NNS stored a reference instead of a copy")
	}
}

func TestTreeLearnsAxisAlignedConcept(t *testing.T) {
	// Class = quadrant of a 2-D point: perfectly separable by a depth-2 tree.
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		p := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		c := 0
		if p[0] > 0 {
			c += 1
		}
		if p[1] > 0 {
			c += 2
		}
		x = append(x, p)
		y = append(y, c)
	}
	tree := TrainTree(x, y, 4, DefaultTreeConfig())
	if acc := accuracy(tree, x, y); acc < 0.98 {
		t.Fatalf("training accuracy = %.3f, want >= 0.98", acc)
	}
	if tree.Predict([]float64{0.5, 0.5}) != 3 {
		t.Error("quadrant prediction wrong")
	}
}

func TestTreeRespectsDepthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(8))
	}
	cfg := TreeConfig{MaxDepth: 3, MinLeaf: 1}
	tree := TrainTree(x, y, 8, cfg)
	if d := tree.Depth(); d > 3 {
		t.Fatalf("depth = %d, exceeds bound 3", d)
	}
}

func TestTreePureNodeShortCircuits(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{5, 5, 5}
	tree := TrainTree(x, y, 6, DefaultTreeConfig())
	if tree.Depth() != 0 {
		t.Fatal("pure data should yield a single leaf")
	}
	if tree.Predict([]float64{99}) != 5 {
		t.Fatal("leaf class wrong")
	}
}

func TestTreeGeneralizes(t *testing.T) {
	// Labels depend on one of 10 features; the tree must find it and
	// generalise to held-out points.
	rng := rand.New(rand.NewSource(7))
	gen := func(n int) ([][]float64, []int) {
		var xs [][]float64
		var ys []int
		for i := 0; i < n; i++ {
			v := make([]float64, 10)
			for j := range v {
				v[j] = rng.Float64()
			}
			c := 0
			if v[7] > 0.5 {
				c = 1
			}
			xs = append(xs, v)
			ys = append(ys, c)
		}
		return xs, ys
	}
	trainX, trainY := gen(500)
	testX, testY := gen(200)
	tree := TrainTree(trainX, trainY, 2, DefaultTreeConfig())
	if acc := accuracy(tree, testX, testY); acc < 0.95 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestGiniCounts(t *testing.T) {
	if g := giniCounts([]int{5, 5}, 10); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("gini(5,5) = %g, want 0.5", g)
	}
	if g := giniCounts([]int{10, 0}, 10); g != 0 {
		t.Errorf("gini(pure) = %g, want 0", g)
	}
}

// accuracy evaluates a tree on labelled data.
func accuracy(t *Tree, x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	ok := 0
	for i := range x {
		if t.Predict(x[i]) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(x))
}
