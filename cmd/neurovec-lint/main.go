// neurovec-lint enforces repo-wide invariants that go vet cannot express,
// using only the standard go/ast toolchain (no external analyzers). It is
// run in CI over ./... and exits non-zero on any finding.
//
// Rules:
//
//	detpkg       deterministic packages (trainer, evalharness, nn, rl,
//	             lang/sema) must not read wall-clock time (time.Now,
//	             time.Since) or draw from math/rand's global source; all
//	             randomness flows through an explicit *rand.Rand so runs
//	             are reproducible from a seed.
//	ctxfirst     a context.Context parameter must be the first parameter
//	             (after the receiver), per Go convention.
//	metricnames  metric names registered through the obs registry must be
//	             snake_case with the neurovec_ prefix; counters end in
//	             _total, histograms in a unit suffix (_seconds/_bytes),
//	             and gauges carry no accumulation/unit suffix.
//	mustparse    lang.MustParse / lower.MustProgram are panicking test
//	             helpers; production code must use the error-returning
//	             ParseFile / Program forms.
//
// A finding is suppressed by a directive comment on the same line or the
// line above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory-by-convention: the directive marks a deliberate
// exception (e.g. the eval harness reporting real wall-clock latency), and
// the next reader deserves to know why.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// deterministicDirs are the package directories whose behavior must be a
// pure function of their inputs and seeds (path match is by slash-separated
// suffix component, so it also catches the testdata fixture tree).
var deterministicDirs = []string{
	"internal/trainer",
	"internal/evalharness",
	"internal/nn",
	"internal/rl",
	"internal/lang/sema",
}

// metricMethods maps obs registry method names to the kind the metricnames
// rule checks the literal name against.
var metricMethods = map[string]string{
	"Counter":      "counter",
	"CounterVec":   "counter",
	"GaugeFunc":    "gauge",
	"GaugeVec":     "gauge",
	"Histogram":    "histogram",
	"HistogramVec": "histogram",
}

// randConstructors take an explicit source/seed and are therefore allowed in
// deterministic packages; everything else on the rand package reads the
// global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

var metricNameRE = regexp.MustCompile(`^neurovec_[a-z][a-z0-9_]*$`)

var allowRE = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\b`)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := runLint(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neurovec-lint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Printf("%d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// runLint expands the patterns to .go files and checks each one. A pattern
// ending in /... walks its root recursively; anything else is a single
// directory or file.
func runLint(patterns []string) ([]Finding, error) {
	files, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, file := range files {
		fs, err := lintFile(file)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

func expand(patterns []string) ([]string, error) {
	var files []string
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if root == "" || root == "." {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					switch d.Name() {
					case "testdata", "vendor", ".git", "node_modules":
						if path != root {
							return filepath.SkipDir
						}
					}
					return nil
				}
				if strings.HasSuffix(path, ".go") {
					files = append(files, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		info, err := os.Stat(pat)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, pat)
			continue
		}
		ents, err := os.ReadDir(pat)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(pat, e.Name()))
			}
		}
	}
	sort.Strings(files)
	return files, nil
}

// lintFile parses one file and applies every rule, dropping findings covered
// by an allow directive.
func lintFile(path string) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	// allowed[line] is the set of rules a //lint:allow directive on that
	// line suppresses; a directive also covers the following line, so it
	// can sit inline or stand alone above the flagged statement.
	allowed := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if allowed[l] == nil {
					allowed[l] = map[string]bool{}
				}
				allowed[l][m[1]] = true
			}
		}
	}

	slash := filepath.ToSlash(path)
	isTest := strings.HasSuffix(path, "_test.go")
	deterministic := false
	for _, dir := range deterministicDirs {
		if strings.Contains(slash, dir+"/") {
			deterministic = true
			break
		}
	}
	// Import names matter: the rules key off the local names the file binds
	// to the "time" and "math/rand" imports, so aliased imports are still
	// caught and an unrelated identifier named rand is not.
	timeName, randName := importName(f, "time"), importName(f, "math/rand")

	var findings []Finding
	report := func(pos token.Pos, rule, msg string) {
		p := fset.Position(pos)
		if allowed[p.Line][rule] {
			return
		}
		findings = append(findings, Finding{File: path, Line: p.Line, Col: p.Column, Rule: rule, Message: msg})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			name := sel.Sel.Name
			if deterministic {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil {
					if pkg.Name == timeName && (name == "Now" || name == "Since") {
						report(n.Pos(), "detpkg", fmt.Sprintf("%s.%s reads the wall clock in a deterministic package; thread timings in explicitly", pkg.Name, name))
					}
					if pkg.Name == randName && !randConstructors[name] {
						report(n.Pos(), "detpkg", fmt.Sprintf("%s.%s uses math/rand's global source in a deterministic package; use an explicit *rand.Rand seeded by the caller", pkg.Name, name))
					}
				}
			}
			if !isTest && (name == "MustParse" || name == "MustProgram") {
				report(n.Pos(), "mustparse", fmt.Sprintf("%s panics on error and is reserved for tests; use the error-returning form", name))
			}
			if kind, ok := metricMethods[name]; ok && len(n.Args) > 0 {
				if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if metric, err := strconv.Unquote(lit.Value); err == nil {
						if msg := checkMetricName(metric, kind); msg != "" {
							report(lit.Pos(), "metricnames", msg)
						}
					}
				}
			}
		case *ast.FuncDecl:
			checkCtxFirst(n.Type, report)
		case *ast.FuncLit:
			checkCtxFirst(n.Type, report)
		}
		return true
	})
	return findings, nil
}

// importName returns the identifier the file binds to the given import path
// ("" when the file does not import it). Unnamed imports use the path base.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return p[strings.LastIndex(p, "/")+1:]
	}
	return ""
}

// checkCtxFirst reports a context.Context parameter that is not the first
// parameter of the function type.
func checkCtxFirst(ft *ast.FuncType, report func(token.Pos, string, string)) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		isCtx := isContextType(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			report(field.Type.Pos(), "ctxfirst", "context.Context must be the first parameter")
		}
		pos += n
	}
}

func isContextType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// checkMetricName validates one registered metric name against the naming
// convention; it returns "" when the name conforms.
func checkMetricName(name, kind string) string {
	if !metricNameRE.MatchString(name) {
		return fmt.Sprintf("metric %q must be snake_case with the neurovec_ prefix", name)
	}
	isUnit := strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_bytes")
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Sprintf("counter %q must end in _total", name)
		}
	case "histogram":
		if !isUnit {
			return fmt.Sprintf("histogram %q must end in a unit suffix (_seconds or _bytes)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") || isUnit {
			return fmt.Sprintf("gauge %q must not carry a _total or unit suffix; gauges are instantaneous values", name)
		}
	}
	return ""
}
