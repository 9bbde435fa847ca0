package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"neurovec/internal/api"
	"neurovec/internal/dataset"
	"neurovec/internal/evalharness"
	"neurovec/internal/extractor"
	"neurovec/internal/lang"
)

// input is one source file the benchmark sends, with what the answer checks
// need to know about it.
type input struct {
	File   string
	Source string
	Params map[string]int64
	// Base names the file the input was derived from, before renaming or
	// editing; shipped kernels keep their suite path ("polybench/gemm.c").
	Base string
	// Loops is the number of innermost loops, counted by the benchmark's own
	// call to extractor.Loops; every answer must carry one decision per loop.
	Loops int
	// ScalarWorkFactor is the corpus item's whole-program offset (corpus_eval
	// only); it enters the harness's cycle counts.
	ScalarWorkFactor float64
}

func (in input) request() api.CompileRequest {
	return api.CompileRequest{File: in.File, Source: in.Source, Params: in.Params}
}

// corpusSpec is the corpus_eval corpus: every shipped suite plus a generated
// suite drawn from the workload seed.
const corpusSpec = "polybench,mibench,figure7,tsvc,generated"

const corpusGenN = 16

// subSeed derives an independent, reproducible seed for item k of a named
// stream, so every stream is a pure function of (seed, name, k).
func subSeed(seed int64, stream string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%d", seed, stream, k)
	return int64(h.Sum64() >> 1)
}

// shipped returns the 57 kernels of the shipped suites (polybench, mibench,
// figure7, tsvc) as inputs, in suite order.
func shipped() ([]input, error) {
	suites := []struct {
		name string
		bs   []dataset.Benchmark
	}{
		{evalharness.SuitePolyBench, dataset.PolyBench()},
		{evalharness.SuiteMiBench, dataset.MiBench()},
		{evalharness.SuiteFigure7, dataset.EvalBenchmarks()},
		{evalharness.SuiteTSVC, dataset.TSVC()},
	}
	var out []input
	for _, s := range suites {
		for _, b := range s.bs {
			file := s.name + "/" + b.Name + ".c"
			in, err := withLoops(input{File: file, Base: file, Source: b.Source, Params: b.ParamValues})
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// generated returns n programs of the extended generator at the given seed.
func generated(stream string, n int, seed int64) []input {
	var out []input
	for _, s := range dataset.Generate(dataset.GenConfig{N: n, Seed: seed, Extended: true}).Samples {
		file := stream + "/" + s.Name + ".c"
		out = append(out, input{File: file, Base: file, Source: s.Source})
	}
	return out
}

// withLoops parses the input and records its innermost-loop count.
func withLoops(in input) (input, error) {
	prog, err := lang.ParseFile(in.File, in.Source)
	if err != nil {
		return in, fmt.Errorf("input %s: %w", in.File, err)
	}
	in.Loops = len(extractor.Loops(prog))
	return in, nil
}

// renamed appends suffix to every function the program defines and to every
// call of one, then re-prints it. The result is a new file as far as every
// cache is concerned: LoopIDs hash the enclosing function's name.
func renamed(in input, suffix string) (input, error) {
	prog, err := lang.ParseFile(in.File, in.Source)
	if err != nil {
		return in, fmt.Errorf("input %s: %w", in.File, err)
	}
	defined := make(map[string]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		defined[f.Name] = true
	}
	renameCall := func(e lang.Expr) bool {
		if c, ok := e.(*lang.CallExpr); ok && defined[c.Fun] {
			c.Fun += suffix
		}
		return true
	}
	for _, f := range prog.Funcs {
		f.Name += suffix
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			for _, e := range stmtExprs(s) {
				lang.WalkExpr(e, renameCall)
			}
			return true
		})
	}
	in.File = strings.TrimSuffix(in.File, ".c") + suffix + ".c"
	in.Source = lang.Print(prog)
	in.Loops = len(extractor.Loops(prog))
	return in, nil
}

// stmtExprs lists the expressions a statement holds directly; lang.Walk
// reaches the nested statements.
func stmtExprs(s lang.Stmt) []lang.Expr {
	switch st := s.(type) {
	case *lang.DeclStmt:
		return []lang.Expr{st.Init}
	case *lang.AssignStmt:
		return []lang.Expr{st.LHS, st.RHS}
	case *lang.IncDecStmt:
		return []lang.Expr{st.X}
	case *lang.ExprStmt:
		return []lang.Expr{st.X}
	case *lang.ForStmt:
		return []lang.Expr{st.Cond}
	case *lang.IfStmt:
		return []lang.Expr{st.Cond}
	case *lang.ReturnStmt:
		return []lang.Expr{st.Value}
	case *lang.SwitchStmt:
		es := []lang.Expr{st.Tag}
		for _, cc := range st.Cases {
			es = append(es, cc.Value)
		}
		return es
	}
	return nil
}

// coldStream yields unique single files: even items come from the extended
// generator, odd items cycle through the shipped kernels in a seeded order.
// Every item's functions are renamed with the item index, so no two items
// share a response-cache key or a LoopID.
type coldStream struct {
	seed    int64
	name    string
	kernels []input
	order   []int
}

func newColdStream(seed int64, name string) (*coldStream, error) {
	ks, err := shipped()
	if err != nil {
		return nil, err
	}
	return &coldStream{seed: seed, name: name, kernels: ks,
		order: rand.New(rand.NewSource(subSeed(seed, name, -1))).Perm(len(ks))}, nil
}

func (s *coldStream) at(k int) (input, error) {
	var base input
	if k%2 == 0 {
		base = generated(s.name, 1, subSeed(s.seed, s.name, k))[0]
	} else {
		base = s.kernels[s.order[(k/2)%len(s.order)]]
	}
	return renamed(base, fmt.Sprintf("_%s%d", strings.ReplaceAll(s.name, "-", "_"), k))
}

// editStream models a developer's edit-compile loop over a working set of
// the shipped kernels plus 64 generated files: Zipf(s=1.1) popularity, half
// exact resends and half comment or whitespace edits, which change the bytes
// but not a single LoopID. The exponent, the split and the working-set size
// are assumptions, not measured from a request trace; see README.md.
//
// The working set and its popularity order are part of the workload's
// definition and do not depend on the seed: a few files take most of the
// traffic, so a seeded order would make each seed a different workload. The
// seed draws the request sequence — which file, resend or edit, and the edit.
type editStream struct {
	seed int64
	name string
	set  []input
	rank []int // popularity rank -> index into set
}

// editSetSeed fixes the working set's generated files and popularity order.
const editSetSeed = 1

// newEditStream builds the working set; streams with different names draw
// different request sequences over it.
func newEditStream(seed int64, name string) (*editStream, error) {
	set, err := shipped()
	if err != nil {
		return nil, err
	}
	for _, in := range generated("edit", 64, subSeed(editSetSeed, "edit-set", 0)) {
		if in, err = withLoops(in); err != nil {
			return nil, err
		}
		set = append(set, in)
	}
	return &editStream{seed: seed, name: name, set: set,
		rank: rand.New(rand.NewSource(subSeed(editSetSeed, "edit-rank", 0))).Perm(len(set))}, nil
}

func (s *editStream) at(k int) (input, error) {
	rng := rand.New(rand.NewSource(subSeed(s.seed, s.name, k)))
	r := rand.NewZipf(rng, 1.1, 1, uint64(len(s.set)-1)).Uint64()
	in := s.set[s.rank[r]]
	if rng.Intn(2) == 0 {
		return in, nil
	}
	in.Source = edit(in.Source, rng, k)
	return in, nil
}

// edit applies one seeded cosmetic edit: a line comment, a blank line, or
// trailing spaces on a non-preprocessor line, inserted at a line boundary so
// it can never split a token.
func edit(src string, rng *rand.Rand, k int) string {
	lines := strings.SplitAfter(src, "\n")
	i := rng.Intn(len(lines) + 1)
	var add string
	switch rng.Intn(3) {
	case 0:
		add = fmt.Sprintf("// edit %d\n", k)
	case 1:
		add = "\n"
	default:
		if i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "#") {
			body, nl := strings.CutSuffix(lines[i], "\n")
			lines[i] = body + strings.Repeat(" ", 1+rng.Intn(4))
			if nl {
				lines[i] += "\n"
			}
			return strings.Join(lines, "")
		}
		add = "\n"
	}
	return strings.Join(lines[:i], "") + add + strings.Join(lines[i:], "")
}

// batchSize is the number of files in one fleet_batch envelope.
const batchSize = 16

// batch returns envelope k of a cold stream: items [16k, 16k+16).
func (s *coldStream) batch(k int) ([]input, error) {
	out := make([]input, batchSize)
	for i := range out {
		in, err := s.at(k*batchSize + i)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// corpusInputs returns the corpus_eval corpus and its items as inputs.
func corpusInputs(seed int64) (*evalharness.Corpus, []input, error) {
	c, err := evalharness.BuildCorpus(corpusSpec, corpusGenN, seed)
	if err != nil {
		return nil, nil, err
	}
	ins := make([]input, len(c.Items))
	for i, it := range c.Items {
		file := it.Suite + "/" + it.Name
		in, err := withLoops(input{File: file, Base: file, Source: it.Source, Params: it.Params,
			ScalarWorkFactor: it.ScalarWorkFactor})
		if err != nil {
			return nil, nil, err
		}
		ins[i] = in
	}
	return c, ins, nil
}
