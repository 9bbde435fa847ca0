// Package ir defines the loop-nest intermediate representation that the
// vectorizer, the baseline cost model, the polyhedral optimizer and the
// execution simulator all operate on.
//
// The IR is deliberately loop-centric rather than instruction-centric: a
// function is a forest of loop nests, and each loop carries the per-iteration
// compute operations, the memory accesses with their affine index functions,
// and any recognised reductions. This is the granularity at which
// vectorization decisions are made, and it is the granularity the paper's
// reward signal observes (whole-loop execution time).
package ir

import (
	"fmt"
	"strings"

	"neurovec/internal/lang"
)

// Op is a compute operation kind carried by loop bodies.
type Op int

// Compute operation kinds. Memory operations are represented separately as
// Access values because the simulator treats them through the cache model.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpNot // bitwise not / logical not
	OpNeg
	OpCmp     // any comparison
	OpSelect  // ternary / predicated select
	OpConvert // type conversion
	OpMin
	OpMax
	OpAbs
	OpCopy // plain register move (cheap)
	OpCall // opaque call: blocks vectorization
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNot: "not", OpNeg: "neg", OpCmp: "cmp", OpSelect: "select",
	OpConvert: "convert", OpMin: "min", OpMax: "max", OpAbs: "abs",
	OpCopy: "copy", OpCall: "call",
}

// String returns the mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Instr is one compute operation executed once per loop iteration.
type Instr struct {
	Op   Op
	Type lang.ScalarType // element type the op produces
	From lang.ScalarType // source type for OpConvert; TypeVoid otherwise
	// Predicated marks instructions under an if inside the loop body; when
	// vectorized they execute under a mask.
	Predicated bool
}

// String renders the instruction for dumps.
func (in Instr) String() string {
	s := fmt.Sprintf("%s.%s", in.Op, in.Type)
	if in.Op == OpConvert {
		s = fmt.Sprintf("convert.%s<-%s", in.Type, in.From)
	}
	if in.Predicated {
		s += " [pred]"
	}
	return s
}

// AccessKind distinguishes loads from stores.
type AccessKind int

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Access is one memory access per loop iteration with an affine index
// function over the enclosing loop induction variables:
//
//	addr(elements) = Offset + sum_j Strides[label_j] * iv_j
//
// Non-affine indices (data-dependent subscripts like b[a[i]]) set
// Affine=false; they vectorize only as gathers/scatters.
type Access struct {
	Kind    AccessKind
	Array   string
	Elem    lang.ScalarType
	Strides map[string]int64 // loop label -> stride in elements
	Offset  int64
	Affine  bool
	Aligned bool // base known aligned to the vector width
	// ExactOffset reports that Offset is the complete constant part of the
	// index: no runtime-scalar term was dropped while folding. Affine accesses
	// with an inexact offset still have exact strides, but the dependence
	// analysis must not compare their offsets against other accesses to the
	// same array.
	ExactOffset bool
	// Dims is the declared array shape; used by the cache footprint model.
	Dims []int64
	// Predicated marks accesses under control flow (masked when vectorized).
	Predicated bool
}

// StrideFor returns the access stride in elements with respect to the loop
// with the given label (0 when invariant in that loop).
func (a *Access) StrideFor(label string) int64 {
	if a.Strides == nil {
		return 0
	}
	return a.Strides[label]
}

// InvariantIn reports whether the access address does not vary with the
// given loop (a hoistable, loop-invariant access).
func (a *Access) InvariantIn(label string) bool {
	return a.Affine && a.StrideFor(label) == 0
}

// Bytes returns the size in bytes of one accessed element.
func (a *Access) Bytes() int64 { return int64(a.Elem.Size()) }

// String renders the access for dumps.
func (a *Access) String() string {
	var parts []string
	for l, s := range a.Strides {
		parts = append(parts, fmt.Sprintf("%d*%s", s, l))
	}
	idx := strings.Join(parts, "+")
	if a.Offset != 0 || idx == "" {
		idx += fmt.Sprintf("%+d", a.Offset)
	}
	suffix := ""
	if !a.Affine {
		suffix = " [non-affine]"
	}
	if a.Predicated {
		suffix += " [pred]"
	}
	return fmt.Sprintf("%s %s.%s[%s]%s", a.Kind, a.Array, a.Elem, idx, suffix)
}

// Reduction describes a recognised reduction (e.g. sum += expr) carried by a
// scalar across loop iterations. Reductions are vectorizable with partial
// accumulators plus a horizontal combine at loop exit, but they put a
// latency-bound dependence chain in the loop which interleaving hides —
// exactly the effect that makes IF > 1 profitable on the paper's dot-product
// kernel.
type Reduction struct {
	Var  string
	Op   Op // OpAdd, OpMul, OpMin, OpMax, OpAnd, OpOr, OpXor
	Type lang.ScalarType
}

// String renders the reduction for dumps.
func (r Reduction) String() string {
	return fmt.Sprintf("reduce %s %s.%s", r.Var, r.Op, r.Type)
}

// Loop is one loop of a nest. Children are directly nested loops; Body,
// Accesses and Reductions describe work belonging to this loop's immediate
// body (excluding children's work).
type Loop struct {
	Label    string // stable identifier from the front end (L0, L1, ...)
	IndexVar string
	Depth    int // 0 for outermost

	Trip      int64 // runtime trip count used by the simulator
	TripKnown bool  // compile-time known (constant bounds)
	Step      int64 // induction step, in iterations of the index variable
	// ProvenTrip is a trip count proven by semantic analysis (0 when
	// unproven). Trip falls back to a simulation default for runtime bounds,
	// so the dependence analysis must never reason from it; ProvenTrip is
	// the value it may use for iteration-space disjointness proofs.
	ProvenTrip int64

	Body       []Instr
	Accesses   []*Access
	Reductions []Reduction
	Children   []*Loop

	Pragma *lang.Pragma // vectorization hint attached in source, if any

	HasIf   bool // body contains control flow -> predication when vectorized
	HasCall bool // body contains an opaque call -> not vectorizable
	// Irregular marks loops lowered without a recognised canonical induction
	// form (unknown init, step, or direction). Their Trip is a simulation
	// default and their IndexVar may be empty; the dependence analysis must
	// treat them as unvectorizable.
	Irregular bool
	// HasEarlyExit marks loops whose body can break out before the trip count
	// is reached; they are simulated but never vectorized.
	HasEarlyExit bool
}

// Innermost reports whether the loop has no nested loops.
func (l *Loop) Innermost() bool { return len(l.Children) == 0 }

// Walk visits l and all loops nested inside it, outer before inner.
func (l *Loop) Walk(fn func(*Loop)) {
	fn(l)
	for _, c := range l.Children {
		c.Walk(fn)
	}
}

// InnermostLoops returns the innermost loops of the nest rooted at l.
func (l *Loop) InnermostLoops() []*Loop {
	var out []*Loop
	l.Walk(func(x *Loop) {
		if x.Innermost() {
			out = append(out, x)
		}
	})
	return out
}

// TotalIterations returns the product of trip counts from l down to (and
// including) the given descendant; if desc == l it returns l.Trip. It
// returns 0 if desc is not in l's subtree.
func (l *Loop) TotalIterations(desc *Loop) int64 {
	if l == desc {
		return max64(l.Trip, 0)
	}
	for _, c := range l.Children {
		if n := c.TotalIterations(desc); n > 0 {
			return max64(l.Trip, 1) * n
		}
	}
	return 0
}

// LoadCount counts load accesses in the immediate body.
func (l *Loop) LoadCount() int {
	n := 0
	for _, a := range l.Accesses {
		if a.Kind == Load {
			n++
		}
	}
	return n
}

// String renders an indented dump of the loop nest, used in tests and the
// CLI's debug output.
func (l *Loop) String() string {
	var b strings.Builder
	l.dump(&b, 0)
	return b.String()
}

func (l *Loop) dump(b *strings.Builder, indent int) {
	pad := strings.Repeat("  ", indent)
	known := ""
	if !l.TripKnown {
		known = " (runtime bound)"
	}
	fmt.Fprintf(b, "%sloop %s iv=%s trip=%d step=%d%s\n", pad, l.Label, l.IndexVar, l.Trip, l.Step, known)
	for _, in := range l.Body {
		fmt.Fprintf(b, "%s  %s\n", pad, in)
	}
	for _, a := range l.Accesses {
		fmt.Fprintf(b, "%s  %s\n", pad, a)
	}
	for _, r := range l.Reductions {
		fmt.Fprintf(b, "%s  %s\n", pad, r)
	}
	for _, c := range l.Children {
		c.dump(b, indent+1)
	}
}

// Func is a function's loop forest plus the cost of its straight-line code.
type Func struct {
	Name string
	// Loops holds the top-level loop nests in source order.
	Loops []*Loop
	// ScalarOps counts compute operations outside any loop; the simulator
	// charges them once per function invocation. This is what makes the
	// MiBench regime (loops are a minor fraction of runtime) representable.
	ScalarOps int
}

// InnermostLoops returns every innermost loop in the function.
func (f *Func) InnermostLoops() []*Loop {
	var out []*Loop
	for _, l := range f.Loops {
		out = append(out, l.InnermostLoops()...)
	}
	return out
}

// Program is the IR for a translation unit.
type Program struct {
	Funcs  []*Func
	Source *lang.Program // retained for embedding extraction
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// InnermostLoops returns every innermost loop in the program, in order.
func (p *Program) InnermostLoops() []*Loop {
	var out []*Loop
	for _, f := range p.Funcs {
		out = append(out, f.InnermostLoops()...)
	}
	return out
}

// FindLoop returns the loop with the given label, or nil.
func (p *Program) FindLoop(label string) *Loop {
	for _, f := range p.Funcs {
		for _, l := range f.Loops {
			var found *Loop
			l.Walk(func(x *Loop) {
				if x.Label == label {
					found = x
				}
			})
			if found != nil {
				return found
			}
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
