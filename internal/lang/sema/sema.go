// Package sema implements semantic analysis for the mini-C frontend: symbol
// resolution with scoped tables, type checking, definite-declaration checks,
// constant-expression folding, array-shape and constant-subscript bounds
// checking, and loop-canonicality classification.
//
// Check is a pure function from a parsed program to two outputs:
//
//   - a deterministic diag.List of findings (errors reject the program under
//     the core's strict mode; warnings and notes only annotate), and
//   - a Facts table of per-loop proofs (constant trip counts) that
//     downstream passes — in particular the dependence analysis in
//     internal/deps — may rely on to accept provably safe loops they would
//     otherwise reject, together with each loop's induction form and the
//     folded value of every integer constant expression. The lowering pass builds its IR from these, so
//     the checker's fold is the program's only constant folder.
//
// The analysis never panics on any parseable input; FuzzSemaNoPanic holds it
// to that.
package sema

import (
	"fmt"

	"neurovec/internal/diag"
	"neurovec/internal/lang"
)

// Diagnostic codes emitted by Check. Codes are stable and append-only; the
// catalog with examples lives in docs/DIAGNOSTICS.md.
const (
	CodeUndeclared     = "SEMA0001" // use of an undeclared identifier
	CodeRedeclared     = "SEMA0002" // redeclaration in the same scope
	CodeVoidVar        = "SEMA0003" // variable or parameter of type void
	CodeNotAnArray     = "SEMA0004" // subscript applied to a scalar
	CodeRankMismatch   = "SEMA0005" // wrong number of subscripts for array rank
	CodeOutOfBounds    = "SEMA0006" // constant subscript outside declared bounds
	CodeArrayAsScalar  = "SEMA0007" // array name used where a scalar is required
	CodeArity          = "SEMA0008" // wrong argument count in a call
	CodeDivByZero      = "SEMA0009" // constant division or remainder by zero
	CodeNonIntegerOp   = "SEMA0010" // float operand where an integer is required
	CodeReturnMismatch = "SEMA0011" // return value disagrees with function type
	CodeNarrowing      = "SEMA0012" // implicit float-to-integer conversion
	CodeNonCanonical   = "SEMA0013" // loop not in canonical induction form
	CodeIVMutation     = "SEMA0014" // induction variable mutated in loop body
	CodeUnused         = "SEMA0015" // local variable never read
	CodeUninitUse      = "SEMA0016" // local scalar read before first assignment
	CodeUnknownStruct  = "SEMA0017" // reference to an undeclared struct type
	CodeUnknownField   = "SEMA0018" // field access on a non-struct or unknown field
	CodeStructAsScalar = "SEMA0019" // struct value used where a scalar is required
	CodeBadSwitch      = "SEMA0020" // non-integer tag, non-constant or duplicate case
	CodeBadBreak       = "SEMA0021" // break outside a loop, or conditional in a switch arm
	CodeEarlyExit      = "SEMA0022" // loop exits early via break; disables vectorization
)

// Info is the result of checking one program.
type Info struct {
	// Diags holds every finding in deterministic order (diag.List.Sort).
	Diags diag.List
	// Facts holds the per-loop proofs established during checking.
	Facts *Facts
}

// Check analyses a parsed program, attributing diagnostics to file. It is
// safe for concurrent callers and never mutates the AST.
func Check(file string, p *lang.Program) *Info {
	c := &checker{
		file: file, facts: &Facts{},
		funcs:   map[string]*lang.FuncDecl{},
		structs: map[string]*lang.StructDecl{},
	}
	if p != nil {
		c.run(p)
	}
	c.diags.Sort()
	return &Info{Diags: c.diags, Facts: c.facts}
}

type symKind int

const (
	symGlobal symKind = iota
	symParam
	symLocal
)

// symbol is one named entity in scope.
type symbol struct {
	name     string
	typ      lang.Type
	kind     symKind
	pos      lang.Pos
	used     bool // read at least once
	assigned bool // definitely assigned at the current walk point
	isConst  bool // holds a known constant value at the current walk point
	constVal int64
	poison   bool // synthesised for an undeclared name to stop cascades
	// funcAssigned marks a global some function assigns: any call may run
	// that assignment, so the global never holds a known constant.
	funcAssigned bool
}

// value is the checked result of an expression: its type plus, when the
// expression denotes (part of) a named array, enough shape information to
// diagnose rank errors precisely.
type value struct {
	typ      lang.Type
	arr      string // array name when the value originates from an array
	rank     int    // declared rank of that array
	subs     int    // subscripts applied so far
	isConst  bool
	constVal int64
}

func (v value) isArray() bool { return v.typ.IsArray() }

// loopState tracks one enclosing for loop while its body is checked.
type loopState struct {
	label     string
	iv        string
	mutated   bool
	earlyExit bool // body contains a break bound to this loop
}

// breakable context kinds, innermost last: a break binds to the top entry.
const (
	inLoop      = 'L'
	inSwitchArm = 'S'
)

type checker struct {
	file  string
	diags diag.List
	facts *Facts

	funcs      map[string]*lang.FuncDecl
	structs    map[string]*lang.StructDecl
	scopes     []map[string]*symbol
	fn         *lang.FuncDecl
	loops      []*loopState // innermost last
	breakables []byte       // enclosing break targets, innermost last
}

func (c *checker) report(sev diag.Severity, code string, pos lang.Pos, msg, hint string) {
	c.diags = append(c.diags, diag.Diagnostic{
		Severity: sev, Code: code, File: c.file,
		Line: pos.Line, Col: pos.Col, Message: msg, Hint: hint,
	})
}

func (c *checker) errorf(code string, pos lang.Pos, format string, args ...any) {
	c.report(diag.Error, code, pos, fmt.Sprintf(format, args...), "")
}

func (c *checker) warnf(code string, pos lang.Pos, format string, args ...any) {
	c.report(diag.Warning, code, pos, fmt.Sprintf(format, args...), "")
}

// ---- Scopes ----

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*symbol{}) }

// popScope leaves a scope, reporting locals that were never read.
func (c *checker) popScope() {
	top := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	var unused []*symbol
	for _, s := range top {
		if s.kind == symLocal && !s.used && !s.poison {
			unused = append(unused, s)
		}
	}
	// Map iteration order is random; sort by position for determinism.
	for i := range unused {
		for j := i + 1; j < len(unused); j++ {
			a, b := unused[i], unused[j]
			if b.pos.Line < a.pos.Line || (b.pos.Line == a.pos.Line && b.pos.Col < a.pos.Col) {
				unused[i], unused[j] = unused[j], unused[i]
			}
		}
	}
	for _, s := range unused {
		c.warnf(CodeUnused, s.pos, "variable %q declared but never read", s.name)
	}
}

func (c *checker) declare(name string, typ lang.Type, kind symKind, pos lang.Pos) *symbol {
	top := c.scopes[len(c.scopes)-1]
	if prev, ok := top[name]; ok && !prev.poison {
		c.errorf(CodeRedeclared, pos, "%q redeclared in this scope (previous declaration at %s)", name, prev.pos)
	}
	s := &symbol{name: name, typ: typ, kind: kind, pos: pos}
	top[name] = s
	return s
}

func (c *checker) lookup(name string) *symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// resolve returns the symbol for an identifier use, synthesising a poison
// symbol (and reporting SEMA0001) when the name is not in scope.
func (c *checker) resolve(id *lang.Ident) *symbol {
	if s := c.lookup(id.Name); s != nil {
		return s
	}
	c.errorf(CodeUndeclared, id.Pos, "undeclared identifier %q", id.Name)
	s := &symbol{
		name: id.Name, typ: lang.Type{Scalar: lang.TypeInt}, kind: symLocal,
		pos: id.Pos, poison: true, assigned: true, used: true,
	}
	c.scopes[len(c.scopes)-1][id.Name] = s
	return s
}

// ---- Program walk ----

func (c *checker) run(p *lang.Program) {
	c.pushScope() // file scope
	for _, sd := range p.Structs {
		if prev, dup := c.structs[sd.Name]; dup {
			c.errorf(CodeRedeclared, sd.Pos, "struct %q redefined (previous definition at %s)", sd.Name, prev.Pos)
			continue
		}
		c.structs[sd.Name] = sd
		seen := map[string]bool{}
		for _, f := range sd.Fields {
			if f.Type == lang.TypeVoid {
				c.errorf(CodeVoidVar, sd.Pos, "field %q of struct %q declared void", f.Name, sd.Name)
			}
			if seen[f.Name] {
				c.errorf(CodeRedeclared, sd.Pos, "field %q duplicated in struct %q", f.Name, sd.Name)
			}
			seen[f.Name] = true
		}
	}
	for _, g := range p.Globals {
		if !g.Type.IsStruct() && g.Type.Scalar == lang.TypeVoid {
			c.errorf(CodeVoidVar, g.Pos, "variable %q declared void", g.Name)
		}
		c.checkStructRef(g.Type, g.Pos)
		s := c.declare(g.Name, g.Type, symGlobal, g.Pos)
		s.assigned = true
		if g.Init != nil {
			v := c.checkExpr(g.Init)
			c.requireScalar(v, posOf(g.Init))
			if v.isConst && !g.Type.IsArray() {
				s.isConst, s.constVal = true, v.constVal
			}
		}
	}
	// Only globals are in scope here, so this marks the ones any function
	// assigns. A same-named local or parameter marks the global too, which
	// only forgoes a constant.
	for _, f := range p.Funcs {
		if f.Body != nil {
			c.eachAssigned(f.Body, markFuncAssigned)
		}
	}
	for _, f := range p.Funcs {
		if prev, dup := c.funcs[f.Name]; dup {
			c.errorf(CodeRedeclared, f.Pos, "function %q redefined (previous definition at %s)", f.Name, prev.Pos)
			continue
		}
		c.funcs[f.Name] = f
	}
	for _, f := range p.Funcs {
		if c.funcs[f.Name] != f {
			continue // duplicate definition already reported
		}
		c.checkFunc(f)
	}
	c.scopes = c.scopes[:len(c.scopes)-1] // globals: no unused reporting
}

func (c *checker) checkFunc(f *lang.FuncDecl) {
	c.fn = f
	c.pushScope()
	for _, prm := range f.Params {
		if !prm.Type.IsStruct() && prm.Type.Scalar == lang.TypeVoid && !prm.Type.IsArray() {
			c.errorf(CodeVoidVar, f.Pos, "parameter %q of %q declared void", prm.Name, f.Name)
		}
		c.checkStructRef(prm.Type, f.Pos)
		s := c.declare(prm.Name, prm.Type, symParam, f.Pos)
		s.assigned = true
	}
	if f.Body != nil {
		c.checkBlock(f.Body)
	}
	c.popScope()
	c.fn = nil
}

func (c *checker) checkBlock(b *lang.BlockStmt) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.DeclStmt:
		if !st.Type.IsStruct() && st.Type.Scalar == lang.TypeVoid {
			c.errorf(CodeVoidVar, st.Pos, "variable %q declared void", st.Name)
		}
		c.checkStructRef(st.Type, st.Pos)
		if st.Type.IsStruct() && st.Init != nil {
			c.errorf(CodeStructAsScalar, st.Pos, "cannot initialise struct variable %q with a scalar expression", st.Name)
		}
		var init value
		if st.Init != nil && !st.Type.IsStruct() {
			init = c.checkExpr(st.Init)
			c.requireScalar(init, st.Pos)
			c.checkNarrowing(st.Type, init, st.Init, st.Pos)
		}
		sym := c.declare(st.Name, st.Type, symLocal, st.Pos)
		if st.Type.IsArray() || st.Type.IsStruct() {
			sym.assigned = true // arrays and structs are storage, not flow-checked values
		} else if st.Init != nil {
			sym.assigned = true
			if init.isConst {
				sym.isConst, sym.constVal = true, init.constVal
			}
		}

	case *lang.AssignStmt:
		c.checkAssign(st)

	case *lang.IncDecStmt:
		c.checkIncDec(st)

	case *lang.ExprStmt:
		c.checkExpr(st.X)

	case *lang.ForStmt:
		c.checkFor(st)

	case *lang.IfStmt:
		cond := c.checkExpr(st.Cond)
		c.requireScalar(cond, st.Pos)
		// What a branch assigns holds neither in the other branch nor
		// after the statement, where either may have run.
		c.forgetAssigned(st.Then)
		c.checkBlock(st.Then)
		c.forgetAssigned(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
			c.forgetAssigned(st.Else)
		}

	case *lang.ReturnStmt:
		ret := lang.TypeVoid
		if c.fn != nil {
			ret = c.fn.Return
		}
		switch {
		case st.Value == nil && ret != lang.TypeVoid:
			c.errorf(CodeReturnMismatch, st.Pos, "return with no value in function returning %s", ret)
		case st.Value != nil && ret == lang.TypeVoid:
			c.errorf(CodeReturnMismatch, st.Pos, "return with a value in void function")
		case st.Value != nil:
			v := c.checkExpr(st.Value)
			c.requireScalar(v, st.Pos)
		}

	case *lang.BlockStmt:
		c.checkBlock(st)

	case *lang.SwitchStmt:
		c.checkSwitch(st)

	case *lang.BreakStmt:
		c.checkBreak(st)
	}
}

// checkStructRef reports declarators whose element type names an undeclared
// struct.
func (c *checker) checkStructRef(t lang.Type, pos lang.Pos) {
	if t.IsStruct() {
		if _, ok := c.structs[t.StructName]; !ok {
			c.errorf(CodeUnknownStruct, pos, "undeclared struct type %q", t.StructName)
		}
	}
}

// checkSwitch checks a switch statement: integer tag, constant and distinct
// case values, at most one default, and each arm as a conditional branch.
func (c *checker) checkSwitch(st *lang.SwitchStmt) {
	tag := c.checkExpr(st.Tag)
	c.requireScalar(tag, posOf(st.Tag))
	if !tag.typ.IsStruct() && tag.typ.Scalar.IsFloat() {
		c.errorf(CodeBadSwitch, posOf(st.Tag), "switch tag must be an integer, got %s", tag.typ.Scalar)
	}
	seen := map[int64]lang.Pos{}
	defaults := 0
	for _, cc := range st.Cases {
		if cc.Value == nil {
			defaults++
			if defaults > 1 {
				c.errorf(CodeBadSwitch, cc.Pos, "multiple default arms in switch")
			}
		} else {
			v := c.checkExpr(cc.Value)
			c.requireScalar(v, cc.Pos)
			if !v.isConst {
				c.errorf(CodeBadSwitch, cc.Pos, "case value is not a constant expression")
			} else if prev, dup := seen[v.constVal]; dup {
				c.errorf(CodeBadSwitch, cc.Pos, "duplicate case value %d (previous arm at %s)", v.constVal, prev)
			} else {
				seen[v.constVal] = cc.Pos
			}
		}
		// Each arm executes conditionally, like an if branch: forget
		// constant knowledge for variables it assigns, before the arm and
		// again after it, since a later arm is entered either instead of
		// this one or by falling through it.
		armBlock := &lang.BlockStmt{Stmts: cc.Body, Pos: cc.Pos}
		c.forgetAssigned(armBlock)
		c.breakables = append(c.breakables, inSwitchArm)
		c.checkBlock(armBlock)
		c.breakables = c.breakables[:len(c.breakables)-1]
		c.forgetAssigned(armBlock)
	}
}

// checkBreak binds a break statement to its innermost target. Trailing breaks
// of switch arms are folded into CaseClause.HasBreak by the parser, so a
// BreakStmt whose innermost breakable is a switch arm is a conditional break
// within the arm — unsupported, because lowering cannot predicate it.
func (c *checker) checkBreak(st *lang.BreakStmt) {
	if len(c.breakables) == 0 {
		c.errorf(CodeBadBreak, st.Pos, "break statement outside a loop or switch")
		return
	}
	if c.breakables[len(c.breakables)-1] == inSwitchArm {
		c.errorf(CodeBadBreak, st.Pos, "break inside a switch arm must be the arm's final statement")
		return
	}
	ls := c.loops[len(c.loops)-1]
	if !ls.earlyExit {
		ls.earlyExit = true
		c.warnf(CodeEarlyExit, st.Pos,
			"loop %s exits early via break; its trip count is not provable and it will not be vectorized", ls.label)
	}
}

// checkAssign handles plain and compound assignment, reduction-style updates
// included.
func (c *checker) checkAssign(st *lang.AssignStmt) {
	rhs := c.checkExpr(st.RHS)
	c.requireScalar(rhs, st.Pos)

	switch lhs := st.LHS.(type) {
	case *lang.Ident:
		sym := c.resolve(lhs)
		if sym.typ.IsArray() {
			c.errorf(CodeArrayAsScalar, lhs.Pos, "cannot assign to array %q as a whole", lhs.Name)
			return
		}
		if st.Op != lang.Assign {
			// Compound assignment reads the previous value.
			c.noteRead(sym, lhs.Pos)
			c.checkIntegerOnlyAssign(st.Op, sym.typ.Scalar, rhs, st.Pos)
		}
		c.checkNarrowing(sym.typ, rhs, st.RHS, st.Pos)
		c.noteMutation(sym, st.Pos)
		sym.assigned = true
		if st.Op == lang.Assign && rhs.isConst && !sym.funcAssigned {
			sym.isConst, sym.constVal = true, rhs.constVal
		} else {
			sym.isConst = false
		}
	case *lang.IndexExpr:
		v := c.checkExpr(lhs)
		c.requireScalar(v, lhs.Pos)
		if st.Op != lang.Assign {
			c.checkIntegerOnlyAssign(st.Op, v.typ.Scalar, rhs, st.Pos)
		}
		c.checkNarrowing(v.typ, rhs, st.RHS, st.Pos)
	case *lang.MemberExpr:
		v := c.checkExpr(lhs)
		if st.Op != lang.Assign {
			c.checkIntegerOnlyAssign(st.Op, v.typ.Scalar, rhs, st.Pos)
		}
		c.checkNarrowing(v.typ, rhs, st.RHS, st.Pos)
	default:
		v := c.checkExpr(st.LHS)
		c.requireScalar(v, st.Pos)
	}
}

func (c *checker) checkIncDec(st *lang.IncDecStmt) {
	switch x := st.X.(type) {
	case *lang.Ident:
		sym := c.resolve(x)
		if sym.typ.IsArray() {
			c.errorf(CodeArrayAsScalar, x.Pos, "cannot increment array %q", x.Name)
			return
		}
		c.noteRead(sym, x.Pos)
		c.noteMutation(sym, st.Pos)
		sym.assigned = true
		sym.isConst = false
	default:
		v := c.checkExpr(st.X)
		c.requireScalar(v, st.Pos)
	}
}

// noteMutation flags writes to an enclosing loop's induction variable.
func (c *checker) noteMutation(sym *symbol, pos lang.Pos) {
	for _, ls := range c.loops {
		if ls.iv == sym.name {
			ls.mutated = true
			c.warnf(CodeIVMutation, pos, "induction variable %q of loop %s mutated in loop body", sym.name, ls.label)
		}
	}
}

// noteRead records a read of a symbol, reporting use-before-assignment for
// local scalars.
func (c *checker) noteRead(sym *symbol, pos lang.Pos) {
	sym.used = true
	if sym.kind == symLocal && !sym.typ.IsArray() && !sym.assigned {
		c.warnf(CodeUninitUse, pos, "variable %q may be read before it is assigned", sym.name)
		sym.assigned = true // report once
	}
}

// forgetAssigned drops constant-value knowledge for every variable assigned
// anywhere in a subtree that runs conditionally or repeatedly: after
// `if (c) n = 4;` the checker no longer knows n. Declarations inside the
// subtree are scoped to it and need no invalidation.
func (c *checker) forgetAssigned(s lang.Stmt) { c.eachAssigned(s, forgetConst) }

func forgetConst(sym *symbol) { sym.isConst = false }

// markFuncAssigned applies to the globals a function body assigns: a
// global keeps its initial value only while no function assigns it.
func markFuncAssigned(sym *symbol) { sym.isConst, sym.funcAssigned = false, true }

// eachAssigned calls fn with the symbol, as resolved in the current scope,
// of every variable assigned or incremented anywhere in a subtree.
func (c *checker) eachAssigned(s lang.Stmt, fn func(*symbol)) {
	var target lang.Expr
	switch st := s.(type) {
	case *lang.AssignStmt:
		target = st.LHS
	case *lang.IncDecStmt:
		target = st.X
	case *lang.BlockStmt:
		for _, x := range st.Stmts {
			c.eachAssigned(x, fn)
		}
	case *lang.ForStmt:
		c.eachAssigned(st.Init, fn)
		c.eachAssigned(st.Post, fn)
		c.eachAssigned(st.Body, fn)
	case *lang.IfStmt:
		c.eachAssigned(st.Then, fn)
		c.eachAssigned(st.Else, fn)
	case *lang.SwitchStmt:
		for _, cc := range st.Cases {
			for _, x := range cc.Body {
				c.eachAssigned(x, fn)
			}
		}
	}
	if id, ok := target.(*lang.Ident); ok {
		if sym := c.lookup(id.Name); sym != nil {
			fn(sym)
		}
	}
}

// ---- Expressions ----

// checkExpr checks one expression and records its folded value, when it has
// one, in the facts table: this fold is the program's only constant folder.
func (c *checker) checkExpr(e lang.Expr) value {
	v := c.checkExprValue(e)
	if v.isConst {
		c.facts.setConst(e, v.constVal)
	}
	return v
}

func (c *checker) checkExprValue(e lang.Expr) value {
	switch ex := e.(type) {
	case *lang.IntLit:
		return value{typ: lang.Type{Scalar: lang.TypeInt}, isConst: true, constVal: ex.Value}

	case *lang.FloatLit:
		return value{typ: lang.Type{Scalar: lang.TypeDouble}}

	case *lang.Ident:
		sym := c.resolve(ex)
		c.noteRead(sym, ex.Pos)
		v := value{typ: sym.typ}
		if sym.typ.IsArray() {
			v.arr, v.rank = sym.name, len(sym.typ.Dims)
		}
		if sym.isConst {
			v.isConst, v.constVal = true, sym.constVal
		}
		return v

	case *lang.IndexExpr:
		return c.checkIndex(ex)

	case *lang.BinaryExpr:
		return c.checkBinary(ex)

	case *lang.UnaryExpr:
		x := c.checkExpr(ex.X)
		c.requireScalar(x, ex.Pos)
		if ex.Op == lang.Tilde && x.typ.Scalar.IsFloat() {
			c.errorf(CodeNonIntegerOp, ex.Pos, "operator ~ requires an integer operand, got %s", x.typ.Scalar)
		}
		out := value{typ: x.typ}
		if x.isConst {
			switch ex.Op {
			case lang.Minus:
				out.isConst, out.constVal = true, -x.constVal
			case lang.Plus:
				out.isConst, out.constVal = true, x.constVal
			case lang.Tilde:
				out.isConst, out.constVal = true, ^x.constVal
			case lang.Bang:
				out.isConst = true
				if x.constVal == 0 {
					out.constVal = 1
				}
			}
		}
		if ex.Op == lang.Bang {
			out.typ = lang.Type{Scalar: lang.TypeInt}
		}
		return out

	case *lang.CallExpr:
		return c.checkCall(ex)

	case *lang.MemberExpr:
		return c.checkMember(ex)

	case *lang.CondExpr:
		cond := c.checkExpr(ex.Cond)
		c.requireScalar(cond, ex.Pos)
		t := c.checkExpr(ex.Then)
		f := c.checkExpr(ex.Else)
		c.requireScalar(t, ex.Pos)
		c.requireScalar(f, ex.Pos)
		out := value{typ: lang.Type{Scalar: promote(t.typ.Scalar, f.typ.Scalar)}}
		if cond.isConst && t.isConst && f.isConst {
			out.isConst = true
			if cond.constVal != 0 {
				out.constVal = t.constVal
			} else {
				out.constVal = f.constVal
			}
		}
		return out

	case *lang.CastExpr:
		x := c.checkExpr(ex.X)
		c.requireScalar(x, ex.Pos)
		out := value{typ: lang.Type{Scalar: ex.To}}
		if x.isConst && ex.To.IsInteger() {
			out.isConst, out.constVal = true, x.constVal
		}
		return out
	}
	return value{typ: lang.Type{Scalar: lang.TypeInt}}
}

// checkIndex checks one subscript application a[i] (chained for a[i][j]).
func (c *checker) checkIndex(ex *lang.IndexExpr) value {
	base := c.checkExpr(ex.Base)
	idx := c.checkExpr(ex.Index)
	c.requireScalar(idx, ex.Pos)
	if idx.typ.Scalar.IsFloat() {
		c.report(diag.Error, CodeNonIntegerOp, posOf(ex.Index),
			fmt.Sprintf("array subscript must be an integer, got %s", idx.typ.Scalar),
			"cast the subscript with (int)")
	}

	if !base.isArray() {
		if base.arr != "" {
			c.errorf(CodeRankMismatch, ex.Pos, "array %q has %d dimension(s) but is subscripted %d time(s)",
				base.arr, base.rank, base.subs+1)
		} else {
			c.errorf(CodeNotAnArray, ex.Pos, "subscript applied to non-array value of type %s", base.typ)
		}
		return value{typ: lang.Type{Scalar: base.typ.Scalar}, arr: base.arr, rank: base.rank, subs: base.subs + 1}
	}

	dim := base.typ.Dims[0]
	if idx.isConst && dim > 0 && (idx.constVal < 0 || idx.constVal >= dim) {
		c.report(diag.Error, CodeOutOfBounds, posOf(ex.Index),
			fmt.Sprintf("constant subscript %d out of bounds for array %q dimension of size %d",
				idx.constVal, base.arr, dim),
			fmt.Sprintf("valid indices are 0..%d", dim-1))
	}
	return value{
		typ:  lang.Type{Scalar: base.typ.Scalar, StructName: base.typ.StructName, Dims: base.typ.Dims[1:]},
		arr:  base.arr,
		rank: base.rank,
		subs: base.subs + 1,
	}
}

// checkMember checks a field access base.field. The base must denote a
// struct value: a struct variable, or a struct array subscripted down to one
// element.
func (c *checker) checkMember(ex *lang.MemberExpr) value {
	base := c.checkExpr(ex.Base)
	if base.typ.IsArray() {
		c.errorf(CodeUnknownField, ex.Pos, "field access on array %q; subscript it down to one element first", base.arr)
		return value{typ: lang.Type{Scalar: lang.TypeInt}}
	}
	if !base.typ.IsStruct() {
		c.errorf(CodeUnknownField, ex.Pos, "field access on non-struct value of type %s", base.typ)
		return value{typ: lang.Type{Scalar: lang.TypeInt}}
	}
	sd, ok := c.structs[base.typ.StructName]
	if !ok {
		// The undeclared struct type was reported at the declaration site.
		return value{typ: lang.Type{Scalar: lang.TypeInt}}
	}
	fld := sd.Field(ex.Field)
	if fld == nil {
		c.errorf(CodeUnknownField, ex.Pos, "struct %q has no field %q", sd.Name, ex.Field)
		return value{typ: lang.Type{Scalar: lang.TypeInt}}
	}
	return value{typ: lang.Type{Scalar: fld.Type}}
}

func (c *checker) checkBinary(ex *lang.BinaryExpr) value {
	x := c.checkExpr(ex.X)
	y := c.checkExpr(ex.Y)
	c.requireScalar(x, ex.Pos)
	c.requireScalar(y, ex.Pos)

	switch ex.Op {
	case lang.Percent, lang.Shl, lang.Shr, lang.Amp, lang.Pipe, lang.Caret:
		if x.typ.Scalar.IsFloat() || y.typ.Scalar.IsFloat() {
			c.errorf(CodeNonIntegerOp, ex.Pos, "operator %s requires integer operands, got %s and %s",
				ex.Op, x.typ.Scalar, y.typ.Scalar)
		}
	}
	if (ex.Op == lang.Slash || ex.Op == lang.Percent) && y.isConst && y.constVal == 0 {
		c.errorf(CodeDivByZero, ex.Pos, "constant division by zero")
	}

	switch ex.Op {
	case lang.Lt, lang.Gt, lang.Le, lang.Ge, lang.EqEq, lang.NotEq, lang.AndAnd, lang.OrOr:
		out := value{typ: lang.Type{Scalar: lang.TypeInt}}
		if x.isConst && y.isConst {
			out.isConst, out.constVal = true, foldCompare(ex.Op, x.constVal, y.constVal)
		}
		return out
	}

	out := value{typ: lang.Type{Scalar: promote(x.typ.Scalar, y.typ.Scalar)}}
	if x.isConst && y.isConst {
		if v, ok := foldArith(ex.Op, x.constVal, y.constVal); ok {
			out.isConst, out.constVal = true, v
		}
	}
	return out
}

// builtinArity maps the recognised math builtins to their argument count;
// these lower to vector-friendly ops rather than opaque calls.
var builtinArity = map[string]int{
	"min": 2, "max": 2,
	"abs": 1, "fabs": 1, "fabsf": 1,
	"sqrt": 1, "sqrtf": 1,
}

func (c *checker) checkCall(ex *lang.CallExpr) value {
	args := make([]value, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.checkExpr(a)
		// Arrays decay to pointers as arguments to non-builtin calls; only
		// the math builtins require scalar operands.
		if _, builtin := builtinArity[ex.Fun]; builtin {
			c.requireScalar(args[i], posOf(a))
		}
	}

	if want, ok := builtinArity[ex.Fun]; ok {
		if len(ex.Args) != want {
			c.errorf(CodeArity, ex.Pos, "%s expects %d argument(s), got %d", ex.Fun, want, len(ex.Args))
		}
		t := lang.TypeDouble
		switch ex.Fun {
		case "sqrtf", "fabsf":
			t = lang.TypeFloat
		case "min", "max", "abs", "fabs":
			t = lang.TypeInt
			for _, a := range args {
				t = promote(t, a.typ.Scalar)
			}
		}
		return value{typ: lang.Type{Scalar: t}}
	}
	if fn, ok := c.funcs[ex.Fun]; ok {
		if len(ex.Args) != len(fn.Params) {
			c.errorf(CodeArity, ex.Pos, "%q expects %d argument(s), got %d", ex.Fun, len(fn.Params), len(ex.Args))
		}
		return value{typ: lang.Type{Scalar: fn.Return}}
	}
	// Unknown functions are treated as opaque externals (the lowering pass
	// models them as unvectorizable calls); their result type is unknowable.
	return value{typ: lang.Type{Scalar: lang.TypeInt}}
}

// requireScalar reports uses of an array or struct value where a scalar is
// required.
func (c *checker) requireScalar(v value, pos lang.Pos) {
	if !v.isArray() {
		if v.typ.IsStruct() {
			c.errorf(CodeStructAsScalar, pos, "struct %s value used where a scalar is required; access a field instead", v.typ.StructName)
		}
		return
	}
	if v.subs > 0 {
		c.errorf(CodeRankMismatch, pos, "array %q has %d dimension(s) but is subscripted %d time(s)",
			v.arr, v.rank, v.subs)
	} else {
		c.errorf(CodeArrayAsScalar, pos, "array %q used where a scalar value is required", v.arr)
	}
}

// checkIntegerOnlyAssign rejects float operands of integer-only compound
// assignment operators (%=, <<=, >>=, &=, |=, ^=).
func (c *checker) checkIntegerOnlyAssign(op lang.Kind, lhs lang.ScalarType, rhs value, pos lang.Pos) {
	switch op {
	case lang.PercentAssign, lang.ShlAssign, lang.ShrAssign, lang.AmpAssign, lang.PipeAssign, lang.CaretAssign:
		if lhs.IsFloat() || rhs.typ.Scalar.IsFloat() {
			c.errorf(CodeNonIntegerOp, pos, "operator %s requires integer operands", op)
		}
		if (op == lang.PercentAssign) && rhs.isConst && rhs.constVal == 0 {
			c.errorf(CodeDivByZero, pos, "constant division by zero")
		}
	case lang.SlashAssign:
		if rhs.isConst && rhs.constVal == 0 {
			c.errorf(CodeDivByZero, pos, "constant division by zero")
		}
	}
}

// checkNarrowing warns about implicit float-to-integer stores, which drop
// the fractional part silently. Explicit casts opt out.
func (c *checker) checkNarrowing(lhs lang.Type, rhs value, rhsExpr lang.Expr, pos lang.Pos) {
	if lhs.IsArray() {
		lhs = lang.Type{Scalar: lhs.Scalar}
	}
	if !lhs.Scalar.IsInteger() || !rhs.typ.Scalar.IsFloat() {
		return
	}
	if _, explicit := rhsExpr.(*lang.CastExpr); explicit {
		return
	}
	c.report(diag.Warning, CodeNarrowing, pos,
		fmt.Sprintf("implicit conversion from %s to %s truncates", rhs.typ.Scalar, lhs.Scalar),
		fmt.Sprintf("use an explicit (%s) cast", lhs.Scalar))
}

// ---- Loops: canonicality classification and trip-count proofs ----

func (c *checker) checkFor(st *lang.ForStmt) {
	c.pushScope() // the init declaration's scope
	if st.Init != nil {
		c.checkStmt(st.Init)
	}
	fact := LoopFact{Label: st.Label}
	initOK := c.analyzeInit(st.Init, &fact)
	// The condition, post clause and body run once per iteration, so a
	// variable the post clause or body assigns holds no constant in any of
	// them, nor after the loop.
	c.forgetAssigned(st.Post)
	c.forgetAssigned(st.Body)
	if fact.IndexVar != "" {
		if ivSym := c.lookup(fact.IndexVar); ivSym != nil {
			// The induction variable varies even when the post clause
			// does not step it.
			ivSym.isConst = false
		}
	}

	if st.Cond != nil {
		cond := c.checkExpr(st.Cond)
		c.requireScalar(cond, posOf(st.Cond))
	}

	ls := &loopState{label: st.Label, iv: fact.IndexVar}
	c.loops = append(c.loops, ls)
	c.breakables = append(c.breakables, inLoop)
	c.checkBlock(st.Body)
	c.breakables = c.breakables[:len(c.breakables)-1]
	c.loops = c.loops[:len(c.loops)-1]

	// The post clause runs after the body.
	if st.Post != nil {
		c.checkPost(st.Post, fact.IndexVar)
	}
	stepOK := c.analyzeStep(st.Post, &fact)
	condOK := c.analyzeCond(st.Cond, &fact)
	// Non-canonical loops are warnings, not errors: lowering keeps them as
	// conservatively modelled irregular loops that are never vectorized, so
	// the program still compiles end to end.
	switch {
	case !initOK:
		c.loopDiag(diag.Warning, CodeNonCanonical, st,
			"non-canonical loop %s: init clause does not establish an induction variable; the loop will not be vectorized", st.Label)
	case !stepOK:
		c.loopDiag(diag.Warning, CodeNonCanonical, st,
			"non-canonical loop %s: post clause does not step induction variable %q by a positive constant; the loop will not be vectorized", st.Label, fact.IndexVar)
	case !condOK:
		c.loopDiag(diag.Warning, CodeNonCanonical, st,
			"non-canonical loop %s: condition does not bound induction variable %q; trip count is unknown", st.Label, fact.IndexVar)
	}

	// A break makes the static trip formula an upper bound, not an exact
	// count, so no trip proof is recorded for early-exit loops. Nor for
	// loops that never run: a proof is a positive count.
	if trip, ok := fact.StaticTrip(); ok && trip > 0 && !ls.mutated && !ls.earlyExit {
		fact.TripProven, fact.Trip = true, trip
	}
	c.facts.set(fact)

	c.popScope()
	c.forgetAssigned(st.Post)
	c.forgetAssigned(st.Body)
}

// checkPost checks a post clause. A step of the induction variable (i++,
// i += c) is validated structurally by analyzeStep, and checking it as an
// ordinary statement would double-report reads of the induction variable, so
// only its step expression is checked, which also folds it.
func (c *checker) checkPost(post lang.Stmt, iv string) {
	switch po := post.(type) {
	case *lang.IncDecStmt:
		if id, ok := po.X.(*lang.Ident); ok && id.Name == iv {
			return
		}
	case *lang.AssignStmt:
		if id, ok := po.LHS.(*lang.Ident); ok && id.Name == iv {
			// Still surface problems inside the step expression itself.
			c.checkExpr(po.RHS)
			return
		}
	}
	c.checkStmt(post)
}

// loopDiag reports a diagnostic carrying the loop's stable label.
func (c *checker) loopDiag(sev diag.Severity, code string, st *lang.ForStmt, format string, args ...any) {
	c.diags = append(c.diags, diag.Diagnostic{
		Severity: sev, Code: code, File: c.file,
		Line: st.Pos.Line, Col: st.Pos.Col, Loop: st.Label,
		Message: fmt.Sprintf(format, args...),
	})
}

// analyzeInit records the induction variable the init clause establishes
// and its start value, reporting whether the clause has induction form.
func (c *checker) analyzeInit(init lang.Stmt, fact *LoopFact) bool {
	switch in := init.(type) {
	case *lang.DeclStmt:
		if in.Type.IsArray() {
			return false
		}
		fact.IndexVar = in.Name
		if in.Init != nil {
			fact.Start, fact.StartKnown = c.facts.Const(in.Init)
		}
		return true
	case *lang.AssignStmt:
		id, ok := in.LHS.(*lang.Ident)
		if !ok || in.Op != lang.Assign {
			return false
		}
		fact.IndexVar = id.Name
		fact.Start, fact.StartKnown = c.facts.Const(in.RHS)
		return true
	}
	return false
}

// analyzeStep records the constant stride and direction of a post clause
// that steps the induction variable, reporting whether it does.
func (c *checker) analyzeStep(post lang.Stmt, fact *LoopFact) bool {
	iv := fact.IndexVar
	if iv == "" {
		return false
	}
	var step lang.Expr
	switch po := post.(type) {
	case *lang.IncDecStmt:
		if id, ok := po.X.(*lang.Ident); ok && id.Name == iv {
			fact.Step, fact.Down = 1, po.Dec
			return true
		}
		return false
	case *lang.AssignStmt:
		if id, ok := po.LHS.(*lang.Ident); !ok || id.Name != iv {
			return false
		}
		switch po.Op {
		case lang.PlusAssign, lang.MinusAssign:
			step, fact.Down = po.RHS, po.Op == lang.MinusAssign
		case lang.Assign:
			// i = i + c / i = i - c
			be, ok := po.RHS.(*lang.BinaryExpr)
			if !ok || (be.Op != lang.Plus && be.Op != lang.Minus) {
				return false
			}
			if x, ok := be.X.(*lang.Ident); !ok || x.Name != iv {
				return false
			}
			step, fact.Down = be.Y, be.Op == lang.Minus
		}
	}
	if v, ok := c.facts.Const(step); ok && v > 0 {
		fact.Step = v
		return true
	}
	fact.Down = false
	return false
}

// analyzeCond records the bound the condition compares the induction
// variable against, reporting whether the condition bounds it by a constant
// or a plain variable.
func (c *checker) analyzeCond(cond lang.Expr, fact *LoopFact) bool {
	be, ok := cond.(*lang.BinaryExpr)
	iv := fact.IndexVar
	if !ok || iv == "" {
		return false
	}
	var bound lang.Expr
	op := be.Op
	if id, ok := be.X.(*lang.Ident); ok && id.Name == iv {
		bound = be.Y
	} else if id, ok := be.Y.(*lang.Ident); ok && id.Name == iv {
		// Flip the comparison: N > i  ==  i < N.
		bound = be.X
		switch op {
		case lang.Gt:
			op = lang.Lt
		case lang.Ge:
			op = lang.Le
		case lang.Lt:
			op = lang.Gt
		case lang.Le:
			op = lang.Ge
		}
	} else {
		return false
	}
	switch {
	case !fact.Down && (op == lang.Lt || op == lang.Le):
		fact.Inclusive = op == lang.Le
	case fact.Down && (op == lang.Gt || op == lang.Ge):
		fact.Inclusive = op == lang.Ge
	case op != lang.NotEq:
		return false
	}
	if fact.Bound, fact.BoundKnown = c.facts.Const(bound); fact.BoundKnown {
		return true
	}
	if id, ok := bound.(*lang.Ident); ok {
		fact.BoundVar = id.Name
		return true
	}
	return false
}

// ---- Folding helpers ----

func promote(a, b lang.ScalarType) lang.ScalarType {
	if b > a {
		return b
	}
	return a
}

func foldCompare(op lang.Kind, x, y int64) int64 {
	var b bool
	switch op {
	case lang.Lt:
		b = x < y
	case lang.Gt:
		b = x > y
	case lang.Le:
		b = x <= y
	case lang.Ge:
		b = x >= y
	case lang.EqEq:
		b = x == y
	case lang.NotEq:
		b = x != y
	case lang.AndAnd:
		b = x != 0 && y != 0
	case lang.OrOr:
		b = x != 0 || y != 0
	}
	if b {
		return 1
	}
	return 0
}

func foldArith(op lang.Kind, x, y int64) (int64, bool) {
	switch op {
	case lang.Plus:
		return x + y, true
	case lang.Minus:
		return x - y, true
	case lang.Star:
		return x * y, true
	case lang.Slash:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case lang.Percent:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case lang.Amp:
		return x & y, true
	case lang.Pipe:
		return x | y, true
	case lang.Caret:
		return x ^ y, true
	case lang.Shl:
		if y < 0 || y > 63 {
			return 0, false
		}
		return x << uint(y), true
	case lang.Shr:
		if y < 0 || y > 63 {
			return 0, false
		}
		return x >> uint(y), true
	}
	return 0, false
}

func posOf(e lang.Expr) lang.Pos {
	switch ex := e.(type) {
	case *lang.Ident:
		return ex.Pos
	case *lang.IntLit:
		return ex.Pos
	case *lang.FloatLit:
		return ex.Pos
	case *lang.BinaryExpr:
		return ex.Pos
	case *lang.UnaryExpr:
		return ex.Pos
	case *lang.IndexExpr:
		return ex.Pos
	case *lang.CallExpr:
		return ex.Pos
	case *lang.CondExpr:
		return ex.Pos
	case *lang.CastExpr:
		return ex.Pos
	case *lang.MemberExpr:
		return ex.Pos
	}
	return lang.Pos{}
}
