package sema

import "neurovec/internal/lang"

// LoopFact records what semantic analysis proved about one for loop. Facts
// are keyed by the parser's stable loop label (L0, L1, ...), the same key the
// lowered IR carries, so downstream passes can consume them without
// re-deriving anything from the AST.
type LoopFact struct {
	// Label is the parser-assigned loop label.
	Label string

	// The loop's induction form, which lowering builds the IR loop from.
	// IndexVar is the variable the init clause establishes (empty when it
	// establishes none), and Start its initial value when StartKnown.
	IndexVar   string
	Start      int64
	StartKnown bool
	// Step is the positive constant stride by which the post clause moves
	// IndexVar, downwards when Down; 0 when the post clause is not such a
	// step.
	Step int64
	Down bool
	// Bound is the value the condition compares IndexVar against, when
	// BoundKnown; Inclusive reports that the bound itself is reached.
	// BoundVar names the variable a non-constant bound reads when the
	// bound is a plain identifier, so a runtime value can stand in for it.
	Bound      int64
	BoundKnown bool
	Inclusive  bool
	BoundVar   string

	// TripProven is set when the trip count is a positive compile-time
	// constant proven from constant bounds and step, with the induction
	// variable never mutated in the loop body. Trip is that count. Unlike the
	// simulator's trip estimate, a proven trip is a fact the dependence
	// analysis may rely on for disjointness proofs.
	TripProven bool
	Trip       int64
}

// StaticTrip returns the trip count the loop's constant start, step and
// bound imply, if all three are known. Unlike Trip it holds even when the
// body mutates the induction variable or breaks out early.
func (f LoopFact) StaticTrip() (int64, bool) {
	if f.Step <= 0 || !f.StartKnown || !f.BoundKnown {
		return 0, false
	}
	span := f.Bound - f.Start
	if f.Down {
		span = -span
	}
	if f.Inclusive {
		span++
	}
	if span <= 0 {
		return 0, true
	}
	return (span + f.Step - 1) / f.Step, true
}

// Facts is the set of facts proven for one program: per-loop records, and
// the folded value of every integer constant expression. The zero value and
// nil are both valid empty sets.
type Facts struct {
	loops  map[string]LoopFact
	consts map[lang.Expr]int64
}

// Loop returns the fact record for the loop with the given label.
func (f *Facts) Loop(label string) (LoopFact, bool) {
	if f == nil {
		return LoopFact{}, false
	}
	fact, ok := f.loops[label]
	return fact, ok
}

// Const returns the value x folds to at its point in the checked program:
// constants flow through variables only where the checker knew their value.
// x must be a node of the program the facts were checked from.
func (f *Facts) Const(x lang.Expr) (int64, bool) {
	if lit, ok := x.(*lang.IntLit); ok {
		return lit.Value, true
	}
	if f == nil {
		return 0, false
	}
	v, ok := f.consts[x]
	return v, ok
}

// Len returns the number of loops with recorded facts.
func (f *Facts) Len() int {
	if f == nil {
		return 0
	}
	return len(f.loops)
}

func (f *Facts) set(fact LoopFact) {
	if f.loops == nil {
		f.loops = make(map[string]LoopFact)
	}
	f.loops[fact.Label] = fact
}

// setConst records x's folded value; literals need no entry.
func (f *Facts) setConst(x lang.Expr, v int64) {
	if _, lit := x.(*lang.IntLit); lit {
		return
	}
	if f.consts == nil {
		f.consts = make(map[lang.Expr]int64)
	}
	f.consts[x] = v
}
