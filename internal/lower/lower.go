// Package lower translates the mini-C AST into the loop-nest IR.
//
// The pass performs the analyses a vectorizing compiler front end would,
// reading integer constants and each loop's induction form (start, step,
// bound) from semantic analysis's facts rather than deriving its own:
//
//   - trip counts from the loop form sema recorded (loops with runtime
//     bounds are marked TripKnown=false and get their simulated trip count
//     from Options);
//   - affine analysis of array subscripts, producing per-loop strides used by
//     dependence analysis and the cache model;
//   - reduction recognition (sum += ..., prod *= ..., min/max patterns);
//   - predication of statements under if and switch, and detection of opaque
//     calls and early exits (break) that block vectorization;
//   - struct field accesses lowered to per-field storage planes ("base.field"
//     synthetic arrays), and non-canonical loops lowered conservatively as
//     Irregular rather than rejected.
package lower

import (
	"fmt"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
)

// Options controls lowering.
type Options struct {
	// ParamValues supplies runtime values for function parameters that are
	// used as loop bounds (the "unknown loop bounds" benchmarks). A loop
	// bound that resolves to a parameter uses this value for simulation but
	// stays TripKnown=false for the compiler's cost model.
	ParamValues map[string]int64
	// DefaultTrip is used when a runtime bound has no entry in ParamValues.
	DefaultTrip int64
	// Facts is semantic analysis's result for the program being lowered:
	// lowering reads every integer constant and each loop's induction form
	// from it, and copies a proven trip count onto ir.Loop.ProvenTrip, where
	// the dependence analysis may rely on it. When nil, Program runs
	// sema.Check itself.
	Facts *sema.Facts
}

// DefaultOptions returns the options used throughout the evaluation:
// unspecified runtime bounds simulate 256 iterations.
func DefaultOptions() Options { return Options{DefaultTrip: 256} }

// Error is a lowering error.
type Error struct {
	Func string
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("lower %s: %s", e.Func, e.Msg) }

// Program lowers a parsed program.
func Program(p *lang.Program, opts Options) (*ir.Program, error) {
	if opts.DefaultTrip <= 0 {
		opts.DefaultTrip = 256
	}
	if opts.Facts == nil {
		opts.Facts = sema.Check("", p).Facts
	}
	out := &ir.Program{Source: p}
	env := newEnv(p, opts)
	for _, f := range p.Funcs {
		fn, err := env.lowerFunc(f)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, fn)
	}
	return out, nil
}

// MustProgram lowers with default options and panics on error; for tests and
// generated sources.
func MustProgram(p *lang.Program) *ir.Program {
	out, err := Program(p, DefaultOptions())
	if err != nil {
		panic(err)
	}
	return out
}

// env carries symbol information during lowering.
type env struct {
	opts    Options
	types   map[string]lang.Type
	structs map[string]*lang.StructDecl
	// declDepth records the loop depth at which each scalar was declared:
	// -1 for globals/params/function-scope locals, otherwise the depth of
	// the enclosing loop. Used for reduction recognition.
	declDepth map[string]int
	// loopVars maps in-scope induction variable names to loop labels.
	loopVars map[string]string

	fn    *lang.FuncDecl
	funcN string
}

func newEnv(p *lang.Program, opts Options) *env {
	e := &env{
		opts:      opts,
		types:     make(map[string]lang.Type),
		structs:   make(map[string]*lang.StructDecl),
		declDepth: make(map[string]int),
		loopVars:  make(map[string]string),
	}
	for _, sd := range p.Structs {
		e.structs[sd.Name] = sd
	}
	for _, g := range p.Globals {
		e.types[g.Name] = g.Type
		e.declDepth[g.Name] = -1
	}
	return e
}

func (e *env) errorf(format string, args ...any) error {
	return &Error{Func: e.funcN, Msg: fmt.Sprintf(format, args...)}
}

func (e *env) lowerFunc(f *lang.FuncDecl) (*ir.Func, error) {
	e.fn = f
	e.funcN = f.Name
	// Parameter scope.
	for _, p := range f.Params {
		e.types[p.Name] = p.Type
		e.declDepth[p.Name] = -1
	}
	fn := &ir.Func{Name: f.Name}
	ctx := &loopCtx{depth: -1}
	if err := e.lowerBlock(f.Body, ctx, fn, nil); err != nil {
		return nil, err
	}
	fn.ScalarOps = ctx.scalarOps
	return fn, nil
}

// loopCtx accumulates lowering results for one loop body (or, at depth -1,
// for the function's straight-line code).
type loopCtx struct {
	depth      int
	loop       *ir.Loop // nil at function level
	scalarOps  int      // ops outside loops (function level only)
	predicated bool     // inside an if within the current loop body
}

// emit records a compute instruction in the current context.
func (e *env) emit(ctx *loopCtx, in ir.Instr) {
	in.Predicated = ctx.predicated
	if ctx.loop != nil {
		ctx.loop.Body = append(ctx.loop.Body, in)
	} else {
		ctx.scalarOps++
	}
}

// emitAccess records a memory access in the current context.
func (e *env) emitAccess(ctx *loopCtx, a *ir.Access) {
	a.Predicated = ctx.predicated
	if ctx.loop != nil {
		ctx.loop.Accesses = append(ctx.loop.Accesses, a)
	} else {
		// Straight-line access: charge as a scalar op.
		ctx.scalarOps++
	}
}

func (e *env) lowerBlock(b *lang.BlockStmt, ctx *loopCtx, fn *ir.Func, parent *ir.Loop) error {
	for _, s := range b.Stmts {
		if err := e.lowerStmt(s, ctx, fn, parent); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) lowerStmt(s lang.Stmt, ctx *loopCtx, fn *ir.Func, parent *ir.Loop) error {
	switch st := s.(type) {
	case *lang.DeclStmt:
		e.types[st.Name] = st.Type
		e.declDepth[st.Name] = ctx.depth
		if st.Init != nil {
			if _, err := e.lowerExpr(st.Init, ctx); err != nil {
				return err
			}
			e.emit(ctx, ir.Instr{Op: ir.OpCopy, Type: st.Type.Scalar})
		}
		return nil

	case *lang.AssignStmt:
		return e.lowerAssign(st, ctx)

	case *lang.IncDecStmt:
		if _, err := e.lowerExpr(st.X, ctx); err != nil {
			return err
		}
		e.emit(ctx, ir.Instr{Op: ir.OpAdd, Type: lang.TypeInt})
		return nil

	case *lang.ExprStmt:
		_, err := e.lowerExpr(st.X, ctx)
		return err

	case *lang.ReturnStmt:
		if st.Value != nil {
			if _, err := e.lowerExpr(st.Value, ctx); err != nil {
				return err
			}
		}
		return nil

	case *lang.BlockStmt:
		return e.lowerBlock(st, ctx, fn, parent)

	case *lang.IfStmt:
		t, err := e.lowerExpr(st.Cond, ctx)
		if err != nil {
			return err
		}
		// The comparison itself (if the condition isn't already one).
		if !isComparison(st.Cond) {
			e.emit(ctx, ir.Instr{Op: ir.OpCmp, Type: t})
		}
		if ctx.loop != nil {
			ctx.loop.HasIf = true
		}
		saved := ctx.predicated
		ctx.predicated = true
		if err := e.lowerBlock(st.Then, ctx, fn, parent); err != nil {
			return err
		}
		if st.Else != nil {
			if err := e.lowerStmt(st.Else, ctx, fn, parent); err != nil {
				return err
			}
		}
		ctx.predicated = saved
		// Blend of the two sides.
		e.emit(ctx, ir.Instr{Op: ir.OpSelect, Type: t})
		return nil

	case *lang.ForStmt:
		return e.lowerFor(st, ctx, fn, parent)

	case *lang.BreakStmt:
		// A break reaching here binds to the innermost enclosing loop (arm
		// terminators of switches were folded away by the parser).
		if ctx.loop != nil {
			ctx.loop.HasEarlyExit = true
		}
		return nil

	case *lang.SwitchStmt:
		return e.lowerSwitch(st, ctx, fn, parent)
	}
	return e.errorf("unhandled statement %T", s)
}

// lowerSwitch lowers a switch as a predicated cascade: one comparison of the
// tag per case arm, each arm's work under a mask, and a final blend — the
// same shape an if/else chain lowers to, so the vectorizer's predication
// costs apply unchanged.
func (e *env) lowerSwitch(st *lang.SwitchStmt, ctx *loopCtx, fn *ir.Func, parent *ir.Loop) error {
	t, err := e.lowerExpr(st.Tag, ctx)
	if err != nil {
		return err
	}
	if ctx.loop != nil {
		ctx.loop.HasIf = true
	}
	saved := ctx.predicated
	for _, cc := range st.Cases {
		if cc.Value != nil {
			e.emit(ctx, ir.Instr{Op: ir.OpCmp, Type: t})
		}
		ctx.predicated = true
		for _, s := range cc.Body {
			if err := e.lowerStmt(s, ctx, fn, parent); err != nil {
				ctx.predicated = saved
				return err
			}
		}
		ctx.predicated = saved
	}
	e.emit(ctx, ir.Instr{Op: ir.OpSelect, Type: t})
	return nil
}

func (e *env) lowerFor(st *lang.ForStmt, ctx *loopCtx, fn *ir.Func, parent *ir.Loop) error {
	loop := &ir.Loop{
		Label:  st.Label,
		Depth:  ctx.depth + 1,
		Step:   1,
		Pragma: st.Pragma,
	}

	fact, _ := e.opts.Facts.Loop(st.Label)
	iv := fact.IndexVar
	if iv == "" || fact.Step == 0 {
		// Non-canonical induction (unknown init clause, or a post clause that
		// is not a constant-stride update, e.g. i *= 2). Lower conservatively:
		// mark the loop Irregular, simulate it with the default trip, and keep
		// the induction variable OUT of loopVars so body subscripts that read
		// it become runtime-scalar (inexact) offsets rather than bogus
		// loop-invariant addresses. Dependence analysis never vectorizes
		// Irregular loops.
		loop.Irregular = true
		loop.TripKnown = false
		loop.Trip = e.opts.DefaultTrip
		loop.Step = 1
		if iv != "" {
			loop.IndexVar = iv
			e.declDepth[iv] = loop.Depth
			e.types[iv] = lang.Type{Scalar: lang.TypeInt}
		}
		inner := &loopCtx{depth: loop.Depth, loop: loop}
		if err := e.lowerBlock(st.Body, inner, fn, loop); err != nil {
			return err
		}
		if parent != nil {
			parent.Children = append(parent.Children, loop)
		} else {
			fn.Loops = append(fn.Loops, loop)
		}
		return nil
	}
	loop.IndexVar = iv
	e.declDepth[iv] = loop.Depth
	e.types[iv] = lang.Type{Scalar: lang.TypeInt}
	loop.Step = fact.Step

	if trip, ok := fact.StaticTrip(); ok {
		loop.TripKnown = true
		loop.Trip = trip
	} else {
		loop.Trip = e.opts.DefaultTrip
		if v, ok := e.opts.ParamValues[fact.BoundVar]; ok && fact.BoundVar != "" {
			loop.Trip = max(v, 0)
		}
	}
	if fact.TripProven {
		loop.ProvenTrip = fact.Trip
	}

	// Enter loop scope.
	prevLabel, hadPrev := e.loopVars[iv]
	e.loopVars[iv] = loop.Label
	inner := &loopCtx{depth: loop.Depth, loop: loop}
	if err := e.lowerBlock(st.Body, inner, fn, loop); err != nil {
		return err
	}
	if hadPrev {
		e.loopVars[iv] = prevLabel
	} else {
		delete(e.loopVars, iv)
	}

	// Normalize every access in the subtree to this loop's iteration space
	// [0, trip): with iv = lo ± step*k, a subscript coefficient c over iv
	// advances c*step (negated for downward loops) per iteration and
	// contributes c*lo to the constant offset. The dependence analysis
	// reasons over iterations, not induction-variable values, so without
	// this rewrite its distance and range proofs would be wrong for loops
	// with a non-zero start, a non-unit step, or a downward direction.
	loop.Walk(func(x *ir.Loop) {
		for _, a := range x.Accesses {
			c, refs := a.Strides[loop.Label]
			if !refs || c == 0 {
				continue
			}
			if fact.StartKnown {
				a.Offset += c * fact.Start
			} else {
				// Unknown start: the constant part of the address is
				// incomplete, which disables offset-based dependence proofs.
				a.ExactOffset = false
			}
			eff := c * fact.Step
			if fact.Down {
				eff = -eff
			}
			a.Strides[loop.Label] = eff
			a.Aligned = a.ExactOffset && a.Offset == 0
		}
	})

	if parent != nil {
		parent.Children = append(parent.Children, loop)
	} else {
		fn.Loops = append(fn.Loops, loop)
	}
	return nil
}

// lowerAssign handles assignments, including reduction recognition.
func (e *env) lowerAssign(st *lang.AssignStmt, ctx *loopCtx) error {
	// Reduction pattern: scalar declared outside the current loop, updated
	// with a compound op (sum += x) or the expanded form (sum = sum + x).
	if id, ok := st.LHS.(*lang.Ident); ok && ctx.loop != nil && !ctx.predicated {
		if depth, declared := e.declDepth[id.Name]; declared && depth < ctx.depth {
			if redOp, rhs, isRed := e.reductionOf(st, id.Name); isRed {
				t := e.typeOf(st.LHS)
				if _, err := e.lowerExpr(rhs, ctx); err != nil {
					return err
				}
				ctx.loop.Reductions = append(ctx.loop.Reductions, ir.Reduction{
					Var: id.Name, Op: redOp, Type: t,
				})
				// The combining op executes each iteration.
				e.emit(ctx, ir.Instr{Op: redOp, Type: t})
				return nil
			}
		}
	}

	rhsType, err := e.lowerExpr(st.RHS, ctx)
	if err != nil {
		return err
	}

	switch lhs := st.LHS.(type) {
	case *lang.Ident:
		t := e.typeOf(lhs)
		if st.Op != lang.Assign {
			e.emit(ctx, ir.Instr{Op: compoundOp(st.Op), Type: t})
		} else {
			e.emit(ctx, ir.Instr{Op: ir.OpCopy, Type: t})
		}
		if needsConvert(rhsType, t) {
			e.emit(ctx, ir.Instr{Op: ir.OpConvert, Type: t, From: rhsType})
		}
		return nil
	case *lang.IndexExpr:
		t := e.typeOf(st.LHS)
		if needsConvert(rhsType, t) {
			e.emit(ctx, ir.Instr{Op: ir.OpConvert, Type: t, From: rhsType})
		}
		if st.Op != lang.Assign {
			// Compound store reads the old value too.
			if err := e.lowerIndexAccess(lhs, ir.Load, ctx); err != nil {
				return err
			}
			e.emit(ctx, ir.Instr{Op: compoundOp(st.Op), Type: t})
		}
		return e.lowerIndexAccess(lhs, ir.Store, ctx)
	case *lang.MemberExpr:
		t := e.typeOf(st.LHS)
		if needsConvert(rhsType, t) {
			e.emit(ctx, ir.Instr{Op: ir.OpConvert, Type: t, From: rhsType})
		}
		if st.Op != lang.Assign {
			if _, err := e.lowerMemberAccess(lhs, ir.Load, ctx); err != nil {
				return err
			}
			e.emit(ctx, ir.Instr{Op: compoundOp(st.Op), Type: t})
		}
		_, err := e.lowerMemberAccess(lhs, ir.Store, ctx)
		return err
	}
	return e.errorf("unsupported assignment target %T", st.LHS)
}

// reductionOf reports whether the assignment is a reduction over variable
// name, returning the reduction op and the non-recurrent operand expression.
func (e *env) reductionOf(st *lang.AssignStmt, name string) (ir.Op, lang.Expr, bool) {
	switch st.Op {
	case lang.PlusAssign:
		return ir.OpAdd, st.RHS, true
	case lang.MinusAssign:
		return ir.OpSub, st.RHS, true
	case lang.StarAssign:
		return ir.OpMul, st.RHS, true
	case lang.AmpAssign:
		return ir.OpAnd, st.RHS, true
	case lang.PipeAssign:
		return ir.OpOr, st.RHS, true
	case lang.CaretAssign:
		return ir.OpXor, st.RHS, true
	case lang.Assign:
		// sum = sum + x / sum = x + sum.
		if be, ok := st.RHS.(*lang.BinaryExpr); ok {
			if id, okx := be.X.(*lang.Ident); okx && id.Name == name {
				switch be.Op {
				case lang.Plus:
					return ir.OpAdd, be.Y, true
				case lang.Minus:
					return ir.OpSub, be.Y, true
				case lang.Star:
					return ir.OpMul, be.Y, true
				}
			}
			if id, oky := be.Y.(*lang.Ident); oky && id.Name == name && be.Op == lang.Plus {
				return ir.OpAdd, be.X, true
			}
		}
		// Min/max reduction: m = x < m ? x : m and variants.
		if ce, ok := st.RHS.(*lang.CondExpr); ok {
			if op, operand, isMM := minMaxReduction(ce, name); isMM {
				return op, operand, true
			}
		}
	}
	return 0, nil, false
}

// minMaxReduction matches the four spellings of the ternary min/max idiom.
func minMaxReduction(ce *lang.CondExpr, name string) (ir.Op, lang.Expr, bool) {
	be, ok := ce.Cond.(*lang.BinaryExpr)
	if !ok {
		return 0, nil, false
	}
	isVar := func(x lang.Expr) bool {
		id, okx := x.(*lang.Ident)
		return okx && id.Name == name
	}
	// m = (x < m) ? x : m  -> min; m = (x > m) ? x : m -> max, plus flips.
	var other lang.Expr
	var lessKeepsOther bool
	switch {
	case isVar(be.Y) && !isVar(be.X):
		other = be.X
		lessKeepsOther = be.Op == lang.Lt || be.Op == lang.Le
	case isVar(be.X) && !isVar(be.Y):
		other = be.Y
		lessKeepsOther = be.Op == lang.Gt || be.Op == lang.Ge
	default:
		return 0, nil, false
	}
	thenIsOther := lang.PrintExpr(ce.Then) == lang.PrintExpr(other)
	elseIsVar := isVar(ce.Else)
	if !thenIsOther || !elseIsVar {
		return 0, nil, false
	}
	if lessKeepsOther {
		return ir.OpMin, other, true
	}
	return ir.OpMax, other, true
}

func compoundOp(k lang.Kind) ir.Op {
	switch k {
	case lang.PlusAssign:
		return ir.OpAdd
	case lang.MinusAssign:
		return ir.OpSub
	case lang.StarAssign:
		return ir.OpMul
	case lang.SlashAssign:
		return ir.OpDiv
	case lang.PercentAssign:
		return ir.OpRem
	case lang.AmpAssign:
		return ir.OpAnd
	case lang.PipeAssign:
		return ir.OpOr
	case lang.CaretAssign:
		return ir.OpXor
	case lang.ShlAssign:
		return ir.OpShl
	case lang.ShrAssign:
		return ir.OpShr
	}
	return ir.OpCopy
}

// lowerExpr lowers an expression for its compute ops and memory accesses,
// returning its type.
func (e *env) lowerExpr(x lang.Expr, ctx *loopCtx) (lang.ScalarType, error) {
	switch ex := x.(type) {
	case *lang.IntLit:
		return lang.TypeInt, nil
	case *lang.FloatLit:
		return lang.TypeDouble, nil
	case *lang.Ident:
		return e.typeOf(ex), nil
	case *lang.BinaryExpr:
		tx, err := e.lowerExpr(ex.X, ctx)
		if err != nil {
			return 0, err
		}
		ty, err := e.lowerExpr(ex.Y, ctx)
		if err != nil {
			return 0, err
		}
		t := promote(tx, ty)
		e.emit(ctx, ir.Instr{Op: binOp(ex.Op), Type: t})
		if isComparisonOp(ex.Op) {
			return lang.TypeInt, nil
		}
		return t, nil
	case *lang.UnaryExpr:
		t, err := e.lowerExpr(ex.X, ctx)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case lang.Minus:
			e.emit(ctx, ir.Instr{Op: ir.OpNeg, Type: t})
		case lang.Tilde, lang.Bang:
			e.emit(ctx, ir.Instr{Op: ir.OpNot, Type: t})
		}
		return t, nil
	case *lang.CondExpr:
		tc, err := e.lowerExpr(ex.Cond, ctx)
		if err != nil {
			return 0, err
		}
		if !isComparison(ex.Cond) {
			e.emit(ctx, ir.Instr{Op: ir.OpCmp, Type: tc})
		}
		t1, err := e.lowerExpr(ex.Then, ctx)
		if err != nil {
			return 0, err
		}
		t2, err := e.lowerExpr(ex.Else, ctx)
		if err != nil {
			return 0, err
		}
		t := promote(t1, t2)
		e.emit(ctx, ir.Instr{Op: ir.OpSelect, Type: t})
		return t, nil
	case *lang.CastExpr:
		from, err := e.lowerExpr(ex.X, ctx)
		if err != nil {
			return 0, err
		}
		if needsConvert(from, ex.To) {
			e.emit(ctx, ir.Instr{Op: ir.OpConvert, Type: ex.To, From: from})
		}
		return ex.To, nil
	case *lang.IndexExpr:
		if err := e.lowerIndexAccess(ex, ir.Load, ctx); err != nil {
			return 0, err
		}
		return e.typeOf(ex), nil
	case *lang.MemberExpr:
		return e.lowerMemberAccess(ex, ir.Load, ctx)
	case *lang.CallExpr:
		for _, a := range ex.Args {
			if _, err := e.lowerExpr(a, ctx); err != nil {
				return 0, err
			}
		}
		switch ex.Fun {
		case "min":
			e.emit(ctx, ir.Instr{Op: ir.OpMin, Type: lang.TypeInt})
			return lang.TypeInt, nil
		case "max":
			e.emit(ctx, ir.Instr{Op: ir.OpMax, Type: lang.TypeInt})
			return lang.TypeInt, nil
		case "abs", "fabs", "fabsf":
			e.emit(ctx, ir.Instr{Op: ir.OpAbs, Type: lang.TypeDouble})
			return lang.TypeDouble, nil
		case "sqrt", "sqrtf":
			// Square root sits in the same latency/throughput class as
			// division in the machine model.
			e.emit(ctx, ir.Instr{Op: ir.OpDiv, Type: lang.TypeDouble})
			return lang.TypeDouble, nil
		default:
			e.emit(ctx, ir.Instr{Op: ir.OpCall, Type: lang.TypeInt})
			if ctx.loop != nil {
				ctx.loop.HasCall = true
			}
			return lang.TypeInt, nil
		}
	}
	return 0, e.errorf("unhandled expression %T", x)
}

// lowerIndexAccess resolves an (possibly 2-D) index expression into an
// Access with affine stride information.
func (e *env) lowerIndexAccess(ex *lang.IndexExpr, kind ir.AccessKind, ctx *loopCtx) error {
	// Collect the index chain: A[e1][e2] parses as Index(Index(A,e1),e2).
	var indices []lang.Expr
	base := lang.Expr(ex)
	for {
		ie, ok := base.(*lang.IndexExpr)
		if !ok {
			break
		}
		indices = append([]lang.Expr{ie.Index}, indices...)
		base = ie.Base
	}
	id, ok := base.(*lang.Ident)
	if !ok {
		return e.errorf("unsupported array base expression %T", base)
	}
	bt := e.types[id.Name]
	return e.emitIndexed(kind, id.Name, bt.Scalar, bt.Dims, indices, ctx)
}

// emitIndexed builds and records an Access for a subscripted reference to the
// named storage with the given shape. Shared by plain array references and
// struct-field planes.
func (e *env) emitIndexed(kind ir.AccessKind, array string, elem lang.ScalarType, dims []int64, indices []lang.Expr, ctx *loopCtx) error {
	acc := &ir.Access{
		Kind:  kind,
		Array: array,
		Elem:  elem,
		Dims:  append([]int64(nil), dims...),
	}

	// Row-major flattening: for A[R][C], addr = e1*C + e2.
	coeffs := map[string]int64{}
	offset := int64(0)
	affine := true
	exactOffset := true
	for d, idx := range indices {
		mult := int64(1)
		for j := d + 1; j < len(dims); j++ {
			mult *= dims[j]
		}
		c, off, okA, exact := e.affine(idx)
		if !okA {
			affine = false
			// The subscript expression still costs its ops (already lowered
			// as part of evaluating the index if it reads memory).
			if _, err := e.lowerExpr(idx, ctx); err != nil {
				return err
			}
			continue
		}
		if !exact {
			exactOffset = false
		}
		for k, v := range c {
			coeffs[k] += v * mult
		}
		offset += off * mult
	}
	acc.Affine = affine
	acc.Strides = coeffs
	acc.Offset = offset
	acc.ExactOffset = affine && exactOffset
	acc.Aligned = acc.ExactOffset && offset == 0
	e.emitAccess(ctx, acc)
	return nil
}

// lowerMemberAccess lowers a struct field reference. A field of a scalar
// struct variable is a named register (no memory traffic); a field of a
// subscripted struct array element lowers as an access to the field's own
// storage plane, the synthetic array "base.field" with the struct array's
// shape. Distinct fields therefore never alias, which matches the no-pointer
// object model of the language.
func (e *env) lowerMemberAccess(ex *lang.MemberExpr, kind ir.AccessKind, ctx *loopCtx) (lang.ScalarType, error) {
	ft := e.memberType(ex)
	switch base := ex.Base.(type) {
	case *lang.Ident:
		if kind == ir.Store {
			e.emit(ctx, ir.Instr{Op: ir.OpCopy, Type: ft})
		}
		return ft, nil
	case *lang.IndexExpr:
		var indices []lang.Expr
		b := lang.Expr(base)
		for {
			ie, ok := b.(*lang.IndexExpr)
			if !ok {
				break
			}
			indices = append([]lang.Expr{ie.Index}, indices...)
			b = ie.Base
		}
		id, ok := b.(*lang.Ident)
		if !ok {
			return 0, e.errorf("unsupported member base expression %T", b)
		}
		bt := e.types[id.Name]
		return ft, e.emitIndexed(kind, id.Name+"."+ex.Field, ft, bt.Dims, indices, ctx)
	}
	return 0, e.errorf("unsupported member base expression %T", ex.Base)
}

// memberType resolves the scalar type of a struct field reference.
func (e *env) memberType(ex *lang.MemberExpr) lang.ScalarType {
	b := ex.Base
	for {
		ie, ok := b.(*lang.IndexExpr)
		if !ok {
			break
		}
		b = ie.Base
	}
	if id, ok := b.(*lang.Ident); ok {
		if t, okt := e.types[id.Name]; okt && t.IsStruct() {
			if sd, okd := e.structs[t.StructName]; okd {
				if f := sd.Field(ex.Field); f != nil {
					return f.Type
				}
			}
		}
	}
	return lang.TypeInt
}

// affine analyses an index expression as a linear function of in-scope loop
// variables. exact=false means the expression contained a runtime scalar
// treated as an unknown constant offset (stride info is still valid; static
// alignment is not).
func (e *env) affine(x lang.Expr) (coeffs map[string]int64, off int64, ok, exact bool) {
	switch ex := x.(type) {
	case *lang.IntLit:
		return map[string]int64{}, ex.Value, true, true
	case *lang.Ident:
		if label, isIV := e.loopVars[ex.Name]; isIV {
			return map[string]int64{label: 1}, 0, true, true
		}
		if v, isC := e.opts.Facts.Const(ex); isC {
			return map[string]int64{}, v, true, true
		}
		// Runtime scalar: unknown but loop-invariant offset.
		if t, known := e.types[ex.Name]; known && !t.IsArray() {
			return map[string]int64{}, 0, true, false
		}
		return nil, 0, false, false
	case *lang.UnaryExpr:
		if ex.Op != lang.Minus {
			return nil, 0, false, false
		}
		c, o, okx, exactx := e.affine(ex.X)
		if !okx {
			return nil, 0, false, false
		}
		for k := range c {
			c[k] = -c[k]
		}
		return c, -o, true, exactx
	case *lang.BinaryExpr:
		switch ex.Op {
		case lang.Plus, lang.Minus:
			c1, o1, ok1, e1 := e.affine(ex.X)
			c2, o2, ok2, e2 := e.affine(ex.Y)
			if !ok1 || !ok2 {
				return nil, 0, false, false
			}
			sign := int64(1)
			if ex.Op == lang.Minus {
				sign = -1
			}
			for k, v := range c2 {
				c1[k] += sign * v
			}
			return c1, o1 + sign*o2, true, e1 && e2
		case lang.Star:
			// One side must be a compile-time constant.
			if v, okc := e.opts.Facts.Const(ex.X); okc {
				c, o, okx, exactx := e.affine(ex.Y)
				if !okx {
					return nil, 0, false, false
				}
				for k := range c {
					c[k] *= v
				}
				return c, o * v, true, exactx
			}
			if v, okc := e.opts.Facts.Const(ex.Y); okc {
				c, o, okx, exactx := e.affine(ex.X)
				if !okx {
					return nil, 0, false, false
				}
				for k := range c {
					c[k] *= v
				}
				return c, o * v, true, exactx
			}
			return nil, 0, false, false
		case lang.Slash, lang.Shr:
			// i/2 or i>>1 is not linear in i; treat as non-affine.
			if v, okc := e.opts.Facts.Const(x); okc {
				return map[string]int64{}, v, true, true
			}
			return nil, 0, false, false
		}
		if v, okc := e.opts.Facts.Const(x); okc {
			return map[string]int64{}, v, true, true
		}
		return nil, 0, false, false
	case *lang.CastExpr:
		return e.affine(ex.X)
	}
	if v, okc := e.opts.Facts.Const(x); okc {
		return map[string]int64{}, v, true, true
	}
	return nil, 0, false, false
}

func (e *env) typeOf(x lang.Expr) lang.ScalarType {
	switch ex := x.(type) {
	case *lang.IntLit:
		return lang.TypeInt
	case *lang.FloatLit:
		return lang.TypeDouble
	case *lang.Ident:
		if t, ok := e.types[ex.Name]; ok {
			return t.Scalar
		}
		return lang.TypeInt
	case *lang.IndexExpr:
		base := lang.Expr(ex)
		for {
			ie, ok := base.(*lang.IndexExpr)
			if !ok {
				break
			}
			base = ie.Base
		}
		if id, ok := base.(*lang.Ident); ok {
			if t, okt := e.types[id.Name]; okt {
				return t.Scalar
			}
		}
		return lang.TypeInt
	case *lang.MemberExpr:
		return e.memberType(ex)
	case *lang.BinaryExpr:
		return promote(e.typeOf(ex.X), e.typeOf(ex.Y))
	case *lang.UnaryExpr:
		return e.typeOf(ex.X)
	case *lang.CondExpr:
		return promote(e.typeOf(ex.Then), e.typeOf(ex.Else))
	case *lang.CastExpr:
		return ex.To
	}
	return lang.TypeInt
}

// promote implements C-style usual arithmetic conversions, simplified:
// float beats int, wider beats narrower, and small ints promote to int.
func promote(a, b lang.ScalarType) lang.ScalarType {
	if a.IsFloat() || b.IsFloat() {
		if a == lang.TypeDouble || b == lang.TypeDouble {
			return lang.TypeDouble
		}
		return lang.TypeFloat
	}
	w := a
	if b.Size() > w.Size() {
		w = b
	}
	if w.Size() < lang.TypeInt.Size() {
		return lang.TypeInt
	}
	return w
}

func needsConvert(from, to lang.ScalarType) bool {
	if from == to || from == lang.TypeVoid || to == lang.TypeVoid {
		return false
	}
	// Same-width same-class conversions are free.
	if from.IsFloat() == to.IsFloat() && from.Size() == to.Size() {
		return false
	}
	return true
}

func binOp(k lang.Kind) ir.Op {
	switch k {
	case lang.Plus:
		return ir.OpAdd
	case lang.Minus:
		return ir.OpSub
	case lang.Star:
		return ir.OpMul
	case lang.Slash:
		return ir.OpDiv
	case lang.Percent:
		return ir.OpRem
	case lang.Shl:
		return ir.OpShl
	case lang.Shr:
		return ir.OpShr
	case lang.Amp, lang.AndAnd:
		return ir.OpAnd
	case lang.Pipe, lang.OrOr:
		return ir.OpOr
	case lang.Caret:
		return ir.OpXor
	case lang.Lt, lang.Gt, lang.Le, lang.Ge, lang.EqEq, lang.NotEq:
		return ir.OpCmp
	}
	return ir.OpCopy
}

func isComparisonOp(k lang.Kind) bool {
	switch k {
	case lang.Lt, lang.Gt, lang.Le, lang.Ge, lang.EqEq, lang.NotEq:
		return true
	}
	return false
}

func isComparison(x lang.Expr) bool {
	be, ok := x.(*lang.BinaryExpr)
	return ok && isComparisonOp(be.Op)
}
