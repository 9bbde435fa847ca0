// Package features is the hand-engineered-features ablation: the approach
// of the prior work the paper positions itself against (Stock et al., TACO
// 2012), which represents loops by fixed heuristic features such as
// arithmetic intensity instead of a learned embedding.
//
// It implements the same Embedder interface as the code2vec model so the RL
// agent can train on either representation; the feature extractor itself
// has no trainable parameters, so nothing flows back into it — exactly the
// limitation the paper calls out ("these features are typically not
// sufficient to fully capture the code functionality").
package features

import (
	"math"

	"neurovec/internal/ir"
	"neurovec/internal/nn"
)

// Dim is the feature-vector width.
const Dim = 24

// Vector computes the hand-crafted feature vector for an innermost loop.
//
// Features (all scaled to roughly [0, 1]):
//
//	0  log2 trip count / 16
//	1  trip count known at compile time
//	2  op count / 32
//	3..8 fraction of ops that are add/sub, mul, div/rem, cmp/select,
//	     convert, bitwise
//	9  load streams / 8
//	10 store streams / 8
//	11 fraction of unit-stride accesses
//	12 fraction of strided (non-unit affine) accesses
//	13 fraction of non-affine (gather/scatter) accesses
//	14 has reduction
//	15 reduction is floating point
//	16 has control flow (if) in body
//	17 has opaque call
//	18 widest element bits / 64
//	19 narrowest element bits / 64
//	20 arithmetic intensity: ops / (loads+stores+1), capped at 4, /4
//	21 nest depth / 4
//	22 fraction of accesses statically aligned
//	23 fraction of predicated instructions
func Vector(l *ir.Loop) []float64 {
	v := make([]float64, Dim)
	trip := float64(l.Trip)
	if trip < 1 {
		trip = 1
	}
	v[0] = math.Log2(trip) / 16
	if l.TripKnown {
		v[1] = 1
	}
	ops := len(l.Body)
	v[2] = clamp01(float64(ops) / 32)

	var add, mul, div, cmp, conv, bit, pred float64
	for _, in := range l.Body {
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpNeg:
			add++
		case ir.OpMul:
			mul++
		case ir.OpDiv, ir.OpRem:
			div++
		case ir.OpCmp, ir.OpSelect, ir.OpMin, ir.OpMax, ir.OpAbs:
			cmp++
		case ir.OpConvert:
			conv++
		case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr:
			bit++
		}
		if in.Predicated {
			pred++
		}
	}
	if ops > 0 {
		n := float64(ops)
		v[3], v[4], v[5], v[6], v[7], v[8] = add/n, mul/n, div/n, cmp/n, conv/n, bit/n
		v[23] = pred / n
	}

	var loads, stores, unit, strided, gather, aligned float64
	widest, narrowest := 8, 64
	for _, a := range l.Accesses {
		if a.Kind == ir.Load {
			loads++
		} else {
			stores++
		}
		s := a.StrideFor(l.Label)
		switch {
		case !a.Affine:
			gather++
		case s == 1 || s == -1:
			unit++
		case s != 0:
			strided++
		}
		if a.Aligned {
			aligned++
		}
		if b := a.Elem.Bits(); b > widest {
			widest = b
		}
		if b := a.Elem.Bits(); b < narrowest {
			narrowest = b
		}
	}
	v[9] = clamp01(loads / 8)
	v[10] = clamp01(stores / 8)
	if total := loads + stores; total > 0 {
		v[11] = unit / total
		v[12] = strided / total
		v[13] = gather / total
		v[22] = aligned / total
	}
	if len(l.Reductions) > 0 {
		v[14] = 1
		if l.Reductions[0].Type.IsFloat() {
			v[15] = 1
		}
	}
	if l.HasIf {
		v[16] = 1
	}
	if l.HasCall {
		v[17] = 1
	}
	v[18] = float64(widest) / 64
	v[19] = float64(narrowest) / 64
	v[20] = clamp01(float64(ops) / (loads + stores + 1) / 4)
	v[21] = clamp01(float64(l.Depth+1) / 4)
	return v
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Embedder adapts the feature extractor to the rl.Embedder interface over a
// fixed slice of loops (index = sample ID). It is stateless and has no
// trainable parameters.
type Embedder struct {
	Loops []*ir.Loop
}

// NewScratch returns nil: the features need no per-caller state.
func (e *Embedder) NewScratch() any { return nil }

// Embed returns a freshly computed feature vector.
func (e *Embedder) Embed(_ any, sample int) []float64 {
	return Vector(e.Loops[sample])
}

// Backward is a no-op: hand-crafted features do not learn.
func (e *Embedder) Backward(any, int, []float64) {}

// Params returns nil.
func (e *Embedder) Params() []*nn.Param { return nil }

// Dim returns the feature width.
func (e *Embedder) Dim() int { return Dim }
