package search

import "sort"

// Tree is a CART classification tree trained with Gini impurity. Classes
// are joint action indices (vfIdx*len(IFs)+ifIdx); the caller decodes.
type Tree struct {
	root    *treeNode
	classes int
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	class     int // leaf prediction
	leaf      bool
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth    int
	MinLeaf     int
	MaxFeatures int // features examined per split (0 = all)
}

// DefaultTreeConfig returns reasonable bounds for embedding-sized inputs.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 12, MinLeaf: 2}
}

// TrainTree fits a decision tree on feature vectors X with class labels y.
func TrainTree(x [][]float64, y []int, classes int, cfg TreeConfig) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{classes: classes}
	t.root = t.grow(x, y, idx, 0, cfg)
	return t
}

// Predict returns the class for a feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for n != nil && !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return 0
	}
	return n.class
}

// Depth returns the maximum depth of the tree (diagnostics).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if r > l {
		l = r
	}
	return l + 1
}

func (t *Tree) grow(x [][]float64, y []int, idx []int, d int, cfg TreeConfig) *treeNode {
	counts := make([]int, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	majority, best := 0, -1
	pure := true
	for c, n := range counts {
		if n > best {
			best, majority = n, c
		}
		if n > 0 && n != len(idx) {
			pure = false
		}
	}
	if pure || d >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return &treeNode{leaf: true, class: majority}
	}

	feat, thr, gain := t.bestSplit(x, y, idx, cfg)
	if gain <= 1e-12 {
		return &treeNode{leaf: true, class: majority}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < cfg.MinLeaf || len(ri) < cfg.MinLeaf {
		return &treeNode{leaf: true, class: majority}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.grow(x, y, li, d+1, cfg),
		right:     t.grow(x, y, ri, d+1, cfg),
	}
}

// bestSplit scans features for the Gini-optimal threshold.
func (t *Tree) bestSplit(x [][]float64, y []int, idx []int, cfg TreeConfig) (feat int, thr, gain float64) {
	nFeat := len(x[idx[0]])
	step := 1
	if cfg.MaxFeatures > 0 && nFeat > cfg.MaxFeatures {
		step = nFeat / cfg.MaxFeatures
	}
	parent := gini(y, idx, t.classes)
	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0

	vals := make([]float64, 0, len(idx))
	order := make([]int, len(idx))
	for f := 0; f < nFeat; f += step {
		vals = vals[:0]
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		for _, i := range order {
			vals = append(vals, x[i][f])
		}
		// Incremental class counts over the sorted order.
		leftCounts := make([]int, t.classes)
		rightCounts := make([]int, t.classes)
		for _, i := range order {
			rightCounts[y[i]]++
		}
		nLeft := 0
		nTotal := len(order)
		for k := 0; k < nTotal-1; k++ {
			c := y[order[k]]
			leftCounts[c]++
			rightCounts[c]--
			nLeft++
			if vals[k] == vals[k+1] {
				continue // cannot split between equal values
			}
			g := parent - (float64(nLeft)/float64(nTotal))*giniCounts(leftCounts, nLeft) -
				(float64(nTotal-nLeft)/float64(nTotal))*giniCounts(rightCounts, nTotal-nLeft)
			if g > bestGain {
				bestGain = g
				bestFeat = f
				bestThr = (vals[k] + vals[k+1]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0
	}
	return bestFeat, bestThr, bestGain
}

func gini(y []int, idx []int, classes int) float64 {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	return giniCounts(counts, len(idx))
}

func giniCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	if s < 0 {
		s = 0
	}
	return s
}
