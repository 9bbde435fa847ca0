// Package costmodel implements the baseline vectorization cost model the
// learned policy is compared against — a faithful analogue of LLVM's
// LoopVectorize cost model circa the paper's evaluation.
//
// Like the real thing, it is a *linear*, context-free model: it sums fixed
// per-opcode costs scaled by legalization width and picks the factor pair
// with the lowest estimated cost per scalar iteration. It reasons about the
// conservative "preferred" vector width (128 bits), scalarizes strided and
// non-affine accesses, and chooses the interleave count with a register and
// latency heuristic. It cannot see reduction dependence chains, cache
// behaviour, loop-overhead amortisation, or register spilling — the effects
// the simulator charges for — which is the structural source of the
// baseline/brute-force gap the paper measures (Figures 1 and 2).
package costmodel

import (
	"neurovec/internal/deps"
	"neurovec/internal/ir"
	"neurovec/internal/machine"
	"neurovec/internal/vectorizer"
)

// Choice is the baseline cost model's decision for one loop.
type Choice struct {
	VF, IF int
	// Cost is the model's estimated cost per scalar iteration at (VF, IF).
	Cost float64
	// ScalarCost is the estimate for the unvectorized loop.
	ScalarCost float64
}

// Choose runs the baseline model on an innermost loop.
func Choose(l *ir.Loop, arch *machine.Arch) Choice {
	return choose(l, arch, deps.MaxLegalVF(l, arch.MaxVF))
}

// choose is Choose given the loop's dependence-limited bound maxLegal.
func choose(l *ir.Loop, arch *machine.Arch, maxLegal int) Choice {
	scalarCost := iterCost(l, 1, arch)
	best := Choice{VF: 1, IF: 1, Cost: scalarCost, ScalarCost: scalarCost}

	// LLVM derives the width candidates from the *preferred* register width
	// and the widest element type in the loop.
	widest := widestTypeBits(l)
	maxVF := arch.PreferredBits / widest
	if maxVF > maxLegal {
		maxVF = maxLegal
	}
	// Tiny trip counts are never profitable to vectorize.
	if l.TripKnown && l.Trip < 8 {
		return best
	}

	for vf := 2; vf <= maxVF; vf *= 2 {
		c := iterCost(l, vf, arch)
		if c < best.Cost {
			best.VF, best.Cost = vf, c
		}
	}
	if best.VF == 1 {
		best.IF = 1
		return best
	}
	best.IF = chooseInterleave(l, best.VF, arch)
	return best
}

// Estimate returns the model's estimated cost of one scalar iteration's
// worth of work at vectorization width vf — the per-configuration view of
// the linear model behind Choose. It exists so consistency checks (and
// diagnostics) can compare the model's full cost curve against the
// simulator's measured cycles, not just the argmin.
func Estimate(l *ir.Loop, vf int, arch *machine.Arch) float64 {
	return iterCost(l, vf, arch)
}

// Plan returns the baseline decision as an executable vectorization plan.
// The dependence analysis runs once: its bound both caps the model's
// candidates and clamps the plan.
func Plan(l *ir.Loop, arch *machine.Arch) *vectorizer.Plan {
	maxLegal := deps.MaxLegalVF(l, arch.MaxVF)
	c := choose(l, arch, maxLegal)
	return vectorizer.Clamp(l, arch, maxLegal, c.VF, c.IF)
}

// Plans runs the baseline model over every innermost loop of a program.
func Plans(p *ir.Program, arch *machine.Arch) map[string]*vectorizer.Plan {
	out := make(map[string]*vectorizer.Plan)
	for _, l := range p.InnermostLoops() {
		out[l.Label] = Plan(l, arch)
	}
	return out
}

// iterCost is the linear model: estimated cost of one scalar iteration's
// worth of work when executed at width vf.
func iterCost(l *ir.Loop, vf int, arch *machine.Arch) float64 {
	cost := 0.0
	for _, in := range l.Body {
		cost += opCost(in, vf, arch)
	}
	for _, a := range l.Accesses {
		cost += accessCost(a, l.Label, vf, arch)
	}
	// Loop backedge.
	cost += 1
	return cost / float64(vf)
}

// opCost is the fixed per-opcode table, scaled by the legalization factor:
// a vector wider than the preferred register splits into several ops.
func opCost(in ir.Instr, vf int, arch *machine.Arch) float64 {
	split := float64(legalizeRegs(vf, in.Type.Bits(), arch))
	var c float64
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot,
		ir.OpNeg, ir.OpShl, ir.OpShr, ir.OpCmp, ir.OpCopy,
		ir.OpMin, ir.OpMax, ir.OpAbs:
		c = 1
	case ir.OpMul:
		c = 2
	case ir.OpDiv, ir.OpRem:
		c = 20
	case ir.OpSelect:
		c = 1
	case ir.OpConvert:
		c = 2
	case ir.OpCall:
		c = 40 * float64(vf) // scalarized
		return c
	default:
		c = 1
	}
	if in.Predicated && vf > 1 {
		c *= 2 // masked execution estimate
	}
	return c * split
}

// accessCost prices memory operations: unit-stride vectors are cheap;
// strided and non-affine accesses scalarize (cost ~ vf), which is what makes
// the baseline refuse to vectorize gather-heavy loops.
func accessCost(a *ir.Access, label string, vf int, arch *machine.Arch) float64 {
	if a.InvariantIn(label) {
		return 0
	}
	stride := a.StrideFor(label)
	base := 1.0
	if a.Kind == ir.Store {
		base = 1.0
	}
	if vf == 1 {
		return base
	}
	split := float64(legalizeRegs(vf, a.Elem.Bits(), arch))
	switch {
	case !a.Affine:
		// Scalarized with per-lane address computation, extract and insert.
		return base * float64(vf) * 4
	case stride == 1 || stride == -1:
		c := base * split
		if !a.Aligned {
			c *= 1.5 // unaligned penalty in the static model
		}
		return c
	default:
		return base * float64(vf) * 1.5 // scalarized strided access
	}
}

func legalizeRegs(vf, bits int, arch *machine.Arch) int {
	n := (vf*bits + arch.PreferredBits - 1) / arch.PreferredBits
	if n < 1 {
		n = 1
	}
	return n
}

// chooseInterleave mirrors LLVM's heuristic: interleave to hide latency when
// the loop is small or carries a reduction, bounded by register budget and
// trip count. The result is small (1 or 2, occasionally 4) — the
// conservatism visible in the paper's Figure 1 where the baseline picks
// IF=2 while IF=8 is optimal.
func chooseInterleave(l *ir.Loop, vf int, arch *machine.Arch) int {
	// Loops with stores and no reduction: interleave only tiny bodies.
	small := len(l.Body)+len(l.Accesses) <= 6
	ifc := 1
	if len(l.Reductions) > 0 {
		ifc = 2
	} else if small {
		ifc = 2
	}
	// Register budget: number of live values times IF must fit.
	live := l.LoadCount() + len(l.Reductions) + 1
	for ifc > 1 && live*ifc > arch.VecRegs {
		ifc /= 2
	}
	// Do not interleave past the trip count.
	if l.TripKnown && l.Trip > 0 {
		for ifc > 1 && int64(vf*ifc)*2 > l.Trip {
			ifc /= 2
		}
	}
	if ifc < 1 {
		ifc = 1
	}
	return ifc
}

func widestTypeBits(l *ir.Loop) int {
	w := 8
	for _, in := range l.Body {
		if b := in.Type.Bits(); b > w {
			w = b
		}
	}
	for _, a := range l.Accesses {
		if b := a.Elem.Bits(); b > w {
			w = b
		}
	}
	return w
}
