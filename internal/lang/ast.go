package lang

import (
	"fmt"
	"strings"
)

// ScalarType is a C scalar type in the mini-C language.
type ScalarType int

// Supported scalar types, ordered roughly by width so conversion direction
// can be derived by comparison.
const (
	TypeVoid ScalarType = iota
	TypeChar
	TypeShort
	TypeInt
	TypeLong
	TypeFloat
	TypeDouble
)

// Size returns the size of the type in bytes, following the LP64 C model.
func (t ScalarType) Size() int {
	switch t {
	case TypeChar:
		return 1
	case TypeShort:
		return 2
	case TypeInt, TypeFloat:
		return 4
	case TypeLong, TypeDouble:
		return 8
	}
	return 0
}

// Bits returns the width of the type in bits.
func (t ScalarType) Bits() int { return t.Size() * 8 }

// IsFloat reports whether the type is a floating-point type.
func (t ScalarType) IsFloat() bool { return t == TypeFloat || t == TypeDouble }

// IsInteger reports whether the type is an integer type.
func (t ScalarType) IsInteger() bool {
	switch t {
	case TypeChar, TypeShort, TypeInt, TypeLong:
		return true
	}
	return false
}

// String returns the C spelling of the type.
func (t ScalarType) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeChar:
		return "char"
	case TypeShort:
		return "short"
	case TypeInt:
		return "int"
	case TypeLong:
		return "long"
	case TypeFloat:
		return "float"
	case TypeDouble:
		return "double"
	}
	return fmt.Sprintf("ScalarType(%d)", int(t))
}

// Type is a declared type: a scalar or a named struct, with zero or more
// array dimensions.
type Type struct {
	Scalar     ScalarType
	StructName string  // non-empty for "struct Name" types; Scalar is ignored
	Dims       []int64 // empty for scalars; {N} for T[N]; {N, M} for T[N][M], ...
}

// IsArray reports whether the type has at least one array dimension.
func (t Type) IsArray() bool { return len(t.Dims) > 0 }

// IsStruct reports whether the type's element type is a named struct.
func (t Type) IsStruct() bool { return t.StructName != "" }

// String renders the type; array dims are appended as in a declarator.
func (t Type) String() string {
	var b strings.Builder
	if t.StructName != "" {
		b.WriteString("struct ")
		b.WriteString(t.StructName)
	} else {
		b.WriteString(t.Scalar.String())
	}
	for _, d := range t.Dims {
		fmt.Fprintf(&b, "[%d]", d)
	}
	return b.String()
}

// Pragma is a clang loop pragma attached to a for statement.
// VF==0 or IF==0 means the corresponding clause was absent.
type Pragma struct {
	VF  int
	IF  int
	Raw string // original text, if parsed from source
}

// String renders the pragma as clang would expect it.
func (p Pragma) String() string {
	var clauses []string
	if p.VF > 0 {
		clauses = append(clauses, fmt.Sprintf("vectorize_width(%d)", p.VF))
	}
	if p.IF > 0 {
		clauses = append(clauses, fmt.Sprintf("interleave_count(%d)", p.IF))
	}
	if len(clauses) == 0 {
		return "#pragma clang loop"
	}
	return "#pragma clang loop " + strings.Join(clauses, " ")
}

// Node is the interface implemented by every AST node.
type Node interface {
	nodePos() Pos
}

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// ---- Expressions ----

// Ident is a reference to a named variable.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Text  string // original spelling, preserved by the printer
	Pos   Pos
}

// BinaryExpr is a binary operation such as a+b or i<N.
type BinaryExpr struct {
	Op   Kind // Plus, Minus, Star, ..., AndAnd, OrOr, Lt, EqEq, ...
	X, Y Expr
	Pos  Pos
}

// UnaryExpr is a prefix unary operation (-x, !x, ~x).
type UnaryExpr struct {
	Op  Kind // Minus, Bang, Tilde, Plus
	X   Expr
	Pos Pos
}

// IndexExpr is an array subscript a[i] (possibly chained for a[i][j]).
type IndexExpr struct {
	Base  Expr
	Index Expr
	Pos   Pos
}

// CallExpr is a function call f(args...).
type CallExpr struct {
	Fun  string
	Args []Expr
	Pos  Pos
}

// CondExpr is the ternary conditional c ? t : f.
type CondExpr struct {
	Cond, Then, Else Expr
	Pos              Pos
}

// CastExpr is an explicit cast (T) x.
type CastExpr struct {
	To  ScalarType
	X   Expr
	Pos Pos
}

// MemberExpr is a struct field access base.field. Base is an Ident naming a
// struct variable or an IndexExpr over a struct array (pts[i].x); the
// language has no pointers, so there is no -> form.
type MemberExpr struct {
	Base  Expr
	Field string
	Pos   Pos
}

func (e *Ident) nodePos() Pos      { return e.Pos }
func (e *IntLit) nodePos() Pos     { return e.Pos }
func (e *FloatLit) nodePos() Pos   { return e.Pos }
func (e *BinaryExpr) nodePos() Pos { return e.Pos }
func (e *UnaryExpr) nodePos() Pos  { return e.Pos }
func (e *IndexExpr) nodePos() Pos  { return e.Pos }
func (e *CallExpr) nodePos() Pos   { return e.Pos }
func (e *CondExpr) nodePos() Pos   { return e.Pos }
func (e *CastExpr) nodePos() Pos   { return e.Pos }
func (e *MemberExpr) nodePos() Pos { return e.Pos }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*CondExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}
func (*MemberExpr) exprNode() {}

// ---- Statements ----

// DeclStmt declares (and optionally initialises) a local variable.
type DeclStmt struct {
	Name string
	Type Type
	Init Expr // may be nil
	Pos  Pos
}

// AssignStmt is an assignment, possibly compound (Op != Assign).
type AssignStmt struct {
	Op  Kind // Assign, PlusAssign, ...
	LHS Expr // Ident or IndexExpr
	RHS Expr
	Pos Pos
}

// IncDecStmt is i++ or i-- used as a statement.
type IncDecStmt struct {
	X   Expr
	Dec bool
	Pos Pos
}

// ExprStmt is an expression evaluated for its side effects (e.g. a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// ForStmt is a C for loop. Init and Post are single statements (or nil);
// Cond is an expression (or nil). Pragma, if non-nil, is a clang loop pragma
// that immediately preceded the loop in source.
type ForStmt struct {
	Init   Stmt // DeclStmt or AssignStmt, may be nil
	Cond   Expr // may be nil
	Post   Stmt // AssignStmt or IncDecStmt, may be nil
	Body   *BlockStmt
	Pragma *Pragma
	Label  string // stable loop identifier assigned by the parser: L0, L1, ...
	Pos    Pos
}

// IfStmt is an if/else statement.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
	Pos  Pos
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	Value Expr // may be nil
	Pos   Pos
}

// BreakStmt exits the innermost enclosing loop or switch.
type BreakStmt struct {
	Pos Pos
}

// CaseClause is one "case expr:" or "default:" arm of a switch. Body holds
// the statements up to the next case label; a trailing break is recorded in
// HasBreak rather than kept as a statement, matching C's fallthrough model.
type CaseClause struct {
	Value    Expr // nil for default:
	Body     []Stmt
	HasBreak bool // arm ended with an explicit break
	Pos      Pos
}

// SwitchStmt is a C switch over an integer expression.
type SwitchStmt struct {
	Tag   Expr
	Cases []*CaseClause
	Pos   Pos
}

// BlockStmt is a { ... } statement list.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

func (s *DeclStmt) nodePos() Pos   { return s.Pos }
func (s *AssignStmt) nodePos() Pos { return s.Pos }
func (s *IncDecStmt) nodePos() Pos { return s.Pos }
func (s *ExprStmt) nodePos() Pos   { return s.Pos }
func (s *ForStmt) nodePos() Pos    { return s.Pos }
func (s *IfStmt) nodePos() Pos     { return s.Pos }
func (s *ReturnStmt) nodePos() Pos { return s.Pos }
func (s *BlockStmt) nodePos() Pos  { return s.Pos }
func (s *BreakStmt) nodePos() Pos  { return s.Pos }
func (s *SwitchStmt) nodePos() Pos { return s.Pos }

func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*IncDecStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*ForStmt) stmtNode()    {}
func (*IfStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode() {}
func (*BlockStmt) stmtNode()  {}
func (*BreakStmt) stmtNode()  {}
func (*SwitchStmt) stmtNode() {}

// ---- Top level ----

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Return ScalarType
	Params []Param
	Body   *BlockStmt
	Pos    Pos
}

// GlobalDecl is a file-scope variable declaration, optionally initialised
// with a constant expression.
type GlobalDecl struct {
	Name string
	Type Type
	Init Expr // constant expression or nil
	Pos  Pos
}

// Field is one scalar member of a struct declaration.
type Field struct {
	Name string
	Type ScalarType
}

// StructDecl is a file-scope struct type definition. Fields are scalar-only:
// the language has no pointers and no nested aggregates, which keeps field
// storage disjoint and lowering exact.
type StructDecl struct {
	Name   string
	Fields []Field
	Pos    Pos
}

// Field returns the declared field with the given name, or nil.
func (s *StructDecl) Field(name string) *Field {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// Program is a parsed translation unit.
type Program struct {
	Structs []*StructDecl
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Walk traverses the statement tree rooted at s in depth-first order,
// calling fn for every statement. If fn returns false the subtree below
// that statement is skipped.
func Walk(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch st := s.(type) {
	case *BlockStmt:
		for _, c := range st.Stmts {
			Walk(c, fn)
		}
	case *ForStmt:
		if st.Init != nil {
			Walk(st.Init, fn)
		}
		if st.Post != nil {
			Walk(st.Post, fn)
		}
		Walk(st.Body, fn)
	case *IfStmt:
		Walk(st.Then, fn)
		if st.Else != nil {
			Walk(st.Else, fn)
		}
	case *SwitchStmt:
		for _, cc := range st.Cases {
			for _, c := range cc.Body {
				Walk(c, fn)
			}
		}
	}
}

// WalkExpr traverses the expression tree rooted at e in depth-first order.
// If fn returns false the subtree below that expression is skipped.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch ex := e.(type) {
	case *BinaryExpr:
		WalkExpr(ex.X, fn)
		WalkExpr(ex.Y, fn)
	case *UnaryExpr:
		WalkExpr(ex.X, fn)
	case *IndexExpr:
		WalkExpr(ex.Base, fn)
		WalkExpr(ex.Index, fn)
	case *CallExpr:
		for _, a := range ex.Args {
			WalkExpr(a, fn)
		}
	case *CondExpr:
		WalkExpr(ex.Cond, fn)
		WalkExpr(ex.Then, fn)
		WalkExpr(ex.Else, fn)
	case *CastExpr:
		WalkExpr(ex.X, fn)
	case *MemberExpr:
		WalkExpr(ex.Base, fn)
	}
}

// Loops returns every for statement in the function body in source order
// (outer loops before the loops they contain).
func (f *FuncDecl) Loops() []*ForStmt {
	var out []*ForStmt
	Walk(f.Body, func(s Stmt) bool {
		if fs, ok := s.(*ForStmt); ok {
			out = append(out, fs)
		}
		return true
	})
	return out
}

// InnermostLoops returns the for statements that contain no nested for
// statement — the loops the vectorizer targets, per the paper ("the pragma
// is injected to the most inner loop in case of nested loops").
func (f *FuncDecl) InnermostLoops() []*ForStmt {
	var out []*ForStmt
	for _, l := range f.Loops() {
		inner := false
		Walk(l.Body, func(s Stmt) bool {
			if _, ok := s.(*ForStmt); ok {
				inner = true
				return false
			}
			return true
		})
		if !inner {
			out = append(out, l)
		}
	}
	return out
}
