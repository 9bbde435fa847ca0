package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods that may
// lack a non-test caller, each with the reason. A key is "importpath.Func"
// or "importpath.Type.Method"; a bare method name allows that method on
// every type.
var unreferencedAllowed = map[string]string{
	// Methods that satisfy an interface another package calls through.
	"Error":         "error",
	"Unwrap":        "errors.Unwrap",
	"String":        "fmt.Stringer",
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
	"ServeHTTP":     "http.Handler",
	"Len":           "sort.Interface",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",

	// Test oracles: reference implementations the tests compare against.
	"neurovec/internal/costmodel.Estimate": "test oracle for costmodel.Choose",
	"neurovec/internal/obs.Lint":           "test oracle for the metrics exposition format",

	// Test helpers shared across packages. Five test packages write their
	// checkpoint fixtures with SaveModelFile; MustParse and MustProgram
	// panic on error, and neurovec-lint's mustparse rule keeps them out of
	// non-test code.
	"neurovec/internal/core.Framework.SaveModelFile": "test fixture writer",
	"neurovec/internal/lang.MustParse":               "panicking test helper, kept out of non-test code by neurovec-lint",
	"neurovec/internal/lower.MustProgram":            "panicking test helper, kept out of non-test code by neurovec-lint",

	// Test-only, to be deleted with TestTotalIterations and
	// TestNegativeTripClamp, its only callers.
	"neurovec/internal/ir.Loop.TotalIterations": "no production caller yet; deletion pending",
}

// declFunc is one exported function or method declared outside a test.
type declFunc struct {
	key  string // importpath.Func or importpath.Type.Method
	name string // Func or Method
	recv bool
	decl *ast.FuncDecl
	pos  token.Position
}

// callerScan holds every exported declaration and every reference of the
// scanned non-test files.
type callerScan struct {
	fset  *token.FileSet
	decls []declFunc
	// pkgRefs maps "importpath.Name" to the declarations that reference
	// it, by a package-qualified selector or a same-package identifier;
	// selRefs maps a selector name to the declarations that select it. A
	// nil declaration is a reference outside any function.
	pkgRefs map[string][]*ast.FuncDecl
	selRefs map[string][]*ast.FuncDecl
}

// scanModule parses every non-test .go file under dir, outside testdata
// directories and skip, as packages of the module named module.
func (s *callerScan) scanModule(t *testing.T, dir, module, skip string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || p == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(rel))
		f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.scanFile(f, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (s *callerScan) scanFile(f *ast.File, pkg string) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	for _, d := range f.Decls {
		fd, _ := d.(*ast.FuncDecl)
		if fd != nil && fd.Name.IsExported() {
			df := declFunc{key: pkg + "." + fd.Name.Name, name: fd.Name.Name, decl: fd, pos: s.fset.Position(fd.Pos())}
			if fd.Recv != nil {
				df.recv = true
				df.key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			s.decls = append(s.decls, df)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						s.pkgRefs[p+"."+n.Sel.Name] = append(s.pkgRefs[p+"."+n.Sel.Name], fd)
						return false
					}
				}
				s.selRefs[n.Sel.Name] = append(s.selRefs[n.Sel.Name], fd)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if fd != nil && n == fd.Name {
					return true // a declared name is no reference
				}
				s.pkgRefs[pkg+"."+n.Name] = append(s.pkgRefs[pkg+"."+n.Name], fd)
			}
			return true
		}
		ast.Inspect(d, visit)
	}
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// referencedElsewhere reports whether refs holds a reference from outside
// the declaration itself, so a function that only calls itself is dead.
func referencedElsewhere(refs []*ast.FuncDecl, self *ast.FuncDecl) bool {
	for _, r := range refs {
		if r != self {
			return true
		}
	}
	return false
}

// TestExportedFuncsHaveNonTestCallers keeps code that only its own tests
// keep alive out of the program: every exported function or method
// declared in a non-test file of the module must be referenced from a
// non-test file, outside its own declaration, or be listed in
// unreferencedAllowed with a reason. The bench module counts as a caller.
// References are matched by name without type information: a function
// by a package-qualified selector or a same-package identifier, a method
// by any selector of its name.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	root := repoRoot(t)
	s := &callerScan{
		fset:    token.NewFileSet(),
		pkgRefs: map[string][]*ast.FuncDecl{},
		selRefs: map[string][]*ast.FuncDecl{},
	}
	bench := filepath.Join(root, "bench")
	s.scanModule(t, root, "neurovec", bench)
	s.scanModule(t, bench, "neurovec/bench", "")
	if len(s.decls) < 100 {
		t.Fatalf("found only %d exported functions; the scan is broken", len(s.decls))
	}
	var dead []string
	for _, d := range s.decls {
		if _, ok := unreferencedAllowed[d.key]; ok {
			continue
		}
		if _, ok := unreferencedAllowed[d.name]; ok && d.recv {
			continue
		}
		refs := s.pkgRefs[d.key]
		if d.recv {
			refs = s.selRefs[d.name]
		}
		if !referencedElsewhere(refs, d.decl) {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			dead = append(dead, d.key+" ("+filepath.ToSlash(rel)+":"+strconv.Itoa(d.pos.Line)+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, move it into its test, or list it in unreferencedAllowed with a reason", d)
	}
}
