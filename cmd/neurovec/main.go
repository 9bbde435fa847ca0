// Command neurovec is the command-line front end to the NeuroVectorizer
// reproduction.
//
// Subcommands:
//
//	report   regenerate the paper's figures as text tables
//	train    parallel PPO training over a corpus, with checkpoint/resume
//	annotate run a decision policy over a C file and inject its pragmas
//	serve    run a long-lived HTTP/JSON inference service from a snapshot
//	fleet    run a consistent-hash router over N serve replicas with a
//	         shared cache tier and coordinated rolling hot-reload
//	brute    alias for the policy runner with -policy brute (per-loop table)
//	sweep    print the full VF x IF grid for the first loop of a C file
//	eval     score a policy over a whole corpus (speedup, oracle regret)
//	check    run semantic analysis over C files or corpora and print
//	         machine-readable diagnostics
//
// Every per-loop decision method of the paper's comparison is selectable
// with the shared -policy flag (annotate, brute, and sweep all take it): rl
// (the trained agent, the default), costmodel, brute, random, and nns.
// Model-free policies need no training or checkpoint; rl and nns train
// in-process unless -load supplies a snapshot. -timeout bounds inference:
// deadline-aware policies (brute) return their best answer so far.
//
// Decisions are loop-granular and speak the versioned v2 schema of package
// neurovec/internal/api: every loop carries a stable LoopID (a
// content+position hash that survives whitespace and comment edits),
// -pin <loop_id|label>=VFxIF forces individual loops to explicit factors,
// and -json prints the full per-loop api.CompileResponse — the same object
// the server returns from POST /v2/compile (see docs/API.md).
//
// Training runs through the parallel pipeline (internal/trainer): rollout
// collection shards over -jobs workers with deterministic per-slot seeding,
// -corpus/-dir select real benchmark suites (shared with eval),
// -checkpoint-every writes resumable checkpoints, -resume continues an
// interrupted run bit-exactly, and -eval-every interleaves a learning-curve
// evaluation against the baseline. The final checkpoint doubles as a model
// snapshot: it is consumed with `annotate -load model.gob` or
// `serve -model model.gob`. The serve command loads the checkpoint once and
// answers /v2/compile, /v1/sweep, /v1/eval, /v1/policies, /v1/train,
// /healthz and /metrics (see package neurovec/internal/service for the JSON
// API); SIGHUP or POST /v1/reload swaps in a retrained checkpoint without
// downtime, and asynchronous training jobs started with POST /v1/train can
// be promoted into serving the same way.
//
// Examples:
//
//	neurovec report -fig 7
//	neurovec report -fig all -full
//	neurovec sweep -file kernel.c -policy costmodel
//	neurovec annotate -file kernel.c -samples 1000 -iters 30
//	neurovec annotate -file kernel.c -policy brute -timeout 2s
//	neurovec annotate -file kernel.c -load model.gob -pin L0=4x2 -json
//	neurovec train -corpus generated -n 1000 -iters 30 -jobs 8 -out model.gob
//	neurovec train -corpus polybench,generated -checkpoint-every 5 -eval-every 5 -out model.gob
//	neurovec train -resume model.gob -iters 60 -out model.gob
//	neurovec annotate -file kernel.c -load model.gob
//	neurovec serve -model model.gob -addr :8080 -timeout 30s
//	neurovec eval -policy rl -load model.gob -corpus polybench,mibench -jobs 8 -out report.json
//	neurovec eval -policy costmodel -corpus generated -n 64 -seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/deps"
	"neurovec/internal/experiments"
	"neurovec/internal/obs"
	"neurovec/internal/policy"
	"neurovec/internal/rl"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = cmdReport(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "annotate":
		err = cmdAnnotate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "brute":
		err = cmdBrute(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "-h", "--help", "help":
		usage(os.Stderr)
	default:
		fmt.Fprintf(os.Stderr, "neurovec: unknown command %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "neurovec:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: neurovec <command> [flags]

commands:
  report    regenerate the paper's figures and ablations
            (-fig %s|all, -full)
  train     parallel PPO training over a corpus (-corpus polybench,mibench,
            figure7,generated, -dir ./kernels, -jobs N, -out model.gob,
            -checkpoint-every K, -resume model.gob, -eval-every K);
            deterministic at a fixed -seed for any -jobs
  annotate  inject a policy's vectorization pragmas into a C file
            (-policy rl|costmodel|brute|random|nns, -load model.gob,
            -timeout 2s, -pin <loop_id|label>=VFxIF, -json for the full
            per-loop v2 response)
  serve     serve inference over HTTP/JSON from a snapshot (-model model.gob,
            -timeout 30s, -train-dir DIR, -max-body BYTES, -drain 10s);
            endpoints /v2/compile (per-loop decisions, pins, batches)
            /v1/sweep /v1/eval /v1/train /v1/policies /v1/reload /healthz
            /readyz /metrics; SIGHUP hot-reloads
  fleet     route /v2/compile across N serve replicas by consistent hash
            (-replicas 3 -model model.gob to spawn local replicas, or
            -join URL,URL to front externally managed ones; -hedge-after,
            -probe-interval, -fail-after, -cache); POST /fleet/reload rolls
            a new checkpoint replica-by-replica with zero dropped requests,
            /fleet/status reports the ring (see docs/FLEET.md)
  brute     alias for the policy runner with -policy brute: best (VF, IF)
            per loop of a C file as a table
  sweep     print the VF x IF performance grid for a C file's first loop
            (-policy marks the method's chosen cell)
  eval      evaluate a policy over a whole corpus against a baseline and the
            brute-force oracle; writes a deterministic JSON/CSV report
            (-policy rl, -baseline costmodel, -corpus polybench,mibench,
            figure7,generated, -jobs N, -out report.json, -timeout 2s)
  explain   show the simulator's cycle breakdown per loop (baseline vs best)
  check     run semantic analysis over C files and/or built-in corpora and
            print diagnostics (-json for the v2 wire format, -corpus
            polybench,mibench,figure7,tsvc,generated, -strict to fail on
            warnings); exits 1 when errors are found
`, figureNames("|"))
}

func options(full bool, seed int64) experiments.Options {
	o := experiments.QuickOptions()
	if full {
		o = experiments.DefaultOptions()
	}
	o.Seed = seed
	return o
}

// artifact is what a figure regenerates: an experiments.Table or
// experiments.Curves.
type artifact interface {
	String() string
	WriteCSV(w io.Writer) error
}

// figure is one name `neurovec report -fig` accepts.
type figure struct {
	name string
	run  func(e *reportEnv) artifact
}

// reportEnv is what one report shares between figures: Figures 7, 8 and 9
// decide with one trained framework, and Figures 5 and 6 and the embedding
// and joint-agent ablations read one Reference training. Each is trained on
// first use, so only if a figure that reads it is asked for.
type reportEnv struct {
	o         experiments.Options
	trained   func() *core.Framework
	reference func() *rl.Stats
}

// figures is every name `neurovec report -fig` accepts, in the order
// `-fig all` runs them. The name lookup, the unknown-figure error, the usage
// text and the flag help all read it.
var figures = []figure{
	{"1", func(e *reportEnv) artifact { return experiments.Fig1(e.o) }},
	{"2", func(e *reportEnv) artifact { return experiments.Fig2(e.o) }},
	{"5", func(e *reportEnv) artifact { return experiments.Fig5(e.reference(), e.o) }},
	{"6", func(e *reportEnv) artifact { return experiments.Fig6(e.reference(), e.o) }},
	{"7", func(e *reportEnv) artifact { return experiments.Fig7(e.trained(), e.o) }},
	{"8", func(e *reportEnv) artifact { return experiments.Fig8(e.trained(), e.o) }},
	{"9", func(e *reportEnv) artifact { return experiments.Fig9(e.trained(), e.o) }},
	{"eff", func(e *reportEnv) artifact { return experiments.TrainingEfficiency(e.o) }},
	{"embed", func(e *reportEnv) artifact { return experiments.AblationEmbedding(e.reference(), e.o) }},
	{"joint", func(e *reportEnv) artifact { return experiments.AblationJointAgent(e.reference(), e.o) }},
	{"penalty", func(e *reportEnv) artifact { return experiments.AblationCompilePenalty(e.o) }},
}

// figureNames returns the names of figures joined by sep.
func figureNames(sep string) string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, sep)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	fig := fs.String("fig", "all", "figures to regenerate, comma-separated: "+figureNames(", ")+", or all")
	full := fs.Bool("full", false, "full-size experiments (slower, paper-scale)")
	seed := fs.Int64("seed", 1, "experiment seed")
	csvDir := fs.String("csv", "", "also write figN.csv artifacts into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	todo := figures
	if *fig != "all" {
		todo = nil
		for _, name := range strings.Split(*fig, ",") {
			i := slices.IndexFunc(figures, func(f figure) bool { return f.name == strings.TrimSpace(name) })
			if i < 0 {
				return fmt.Errorf("report: unknown figure %q (want %s or all)", name, figureNames("|"))
			}
			todo = append(todo, figures[i])
		}
	}
	o := options(*full, *seed)
	e := &reportEnv{
		o:         o,
		trained:   sync.OnceValue(func() *core.Framework { return experiments.Train(o) }),
		reference: sync.OnceValue(func() *rl.Stats { return experiments.Reference(o) }),
	}
	for _, f := range todo {
		a := f.run(e)
		fmt.Println(a)
		if err := writeCSV(*csvDir, f.name, a); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes a figure's artifact to dir/fig<name>.csv; an empty dir
// writes nothing.
func writeCSV(dir, name string, a artifact) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(fmt.Sprintf("%s/fig%s.csv", dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := a.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// seededFramework returns an untrained framework with the default
// configuration and the given seed.
func seededFramework(seed int64) *core.Framework {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.New(cfg)
}

// buildTrainer loads n generated samples into a fresh framework and maps the
// training settings onto PPO hyperparameters the way `neurovec train` does.
func buildTrainer(n, iters, batch int, lr float64, seed int64, space string) (*core.Framework, *rl.Config, error) {
	rc, err := trainRLConfig(&trainOpts{iters: iters, batch: batch, lr: lr, seed: seed, space: space})
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: n, Seed: seed})); err != nil {
		return nil, nil, err
	}
	return fw, rc, nil
}

// cmdAnnotate and cmdBrute are one policy runner: annotate defaults to the
// trained agent and prints the annotated source, brute is the historical
// alias defaulting to -policy brute and printing the per-loop table.
func cmdAnnotate(args []string) error { return runPolicyCmd("annotate", args) }

func cmdBrute(args []string) error { return runPolicyCmd("brute", args) }

// labelRe matches parser loop labels (L0, L1, ...); any other pin address
// is treated as a stable LoopID.
var labelRe = regexp.MustCompile(`^L[0-9]+$`)

// pinFlags parses repeated -pin flags of the form <loop_id|label>=VFxIF
// (e.g. -pin L0=4x2 -pin 8c1f03ba90d2ee41=1x1) into api.Pins.
type pinFlags []api.Pin

func (p *pinFlags) String() string {
	parts := make([]string, len(*p))
	for i, pin := range *p {
		parts[i] = fmt.Sprintf("%s=%dx%d", pin.Addr(), pin.VF, pin.IF)
	}
	return strings.Join(parts, ",")
}

func (p *pinFlags) Set(s string) error {
	addr, factors, ok := strings.Cut(s, "=")
	if !ok || addr == "" {
		return fmt.Errorf("want <loop_id|label>=VFxIF, got %q", s)
	}
	vfs, ifs, ok := strings.Cut(factors, "x")
	if !ok {
		return fmt.Errorf("want factors as VFxIF, got %q", factors)
	}
	vf, err := strconv.Atoi(vfs)
	if err != nil {
		return fmt.Errorf("bad VF in %q: %v", s, err)
	}
	ifc, err := strconv.Atoi(ifs)
	if err != nil {
		return fmt.Errorf("bad IF in %q: %v", s, err)
	}
	pin := api.Pin{VF: vf, IF: ifc}
	if labelRe.MatchString(addr) {
		pin.Label = addr
	} else {
		pin.Loop = api.LoopID(addr)
	}
	*p = append(*p, pin)
	return nil
}

// policyNeedsModel reports whether the policy decides from trained state, so
// the runner must load a checkpoint or train in-process first. Everything
// else (costmodel, brute, random) runs model-free.
func policyNeedsModel(name string) bool { return name == "rl" || name == "nns" }

func runPolicyCmd(cmd string, args []string) error {
	defaultPolicy := core.DefaultPolicy
	if cmd == "brute" {
		defaultPolicy = "brute"
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	file := fs.String("file", "", "C source file (required)")
	policyName := fs.String("policy", defaultPolicy,
		"decision policy: "+strings.Join(policy.List(), ", "))
	timeout := fs.Duration("timeout", 0,
		"bound inference time; deadline-aware policies answer best-so-far")
	n := fs.Int("samples", 800, "synthetic training samples (model-backed policies without -load)")
	iters := fs.Int("iters", 25, "PPO iterations (model-backed policies without -load)")
	seed := fs.Int64("seed", 1, "seed")
	load := fs.String("load", "", "load a trained snapshot (train -out) instead of training")
	model := fs.String("model", "", "alias for -load")
	var pins pinFlags
	fs.Var(&pins, "pin",
		"pin one loop to explicit factors, as <loop_id|label>=VFxIF (repeatable)")
	jsonOut := fs.Bool("json", false,
		"print the full v2 per-loop response (api.CompileResponse) as JSON")
	traceFlag := fs.Bool("trace", false,
		"record per-stage pipeline span timings (printed to stderr; embedded in -json output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("%s: -file is required", cmd)
	}
	if *load == "" {
		*load = *model
	}
	if *load != "" && *policyName == "nns" {
		// A checkpoint carries weights but no corpus, and the NNS index is
		// built from labelled units; training in-process is the only path.
		return fmt.Errorf("%s: -policy nns trains in-process and cannot use -load (checkpoints carry no corpus for the NNS index)", cmd)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}

	var fw *core.Framework
	switch {
	case *load != "":
		fw = seededFramework(*seed)
		if err := fw.LoadModelFile(*load); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded model from %s (version %s)\n", *load, fw.ModelVersion())
	case policyNeedsModel(*policyName):
		var rc *rl.Config
		fw, rc, err = buildTrainer(*n, *iters, 200, 5e-4, *seed, "discrete")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "training agent on %d loop units...\n", fw.NumSamples())
		fw.Train(rc)
	default:
		fw = seededFramework(*seed)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tr *obs.Trace
	if *traceFlag {
		tr = obs.NewTrace()
		ctx = obs.WithRecorder(ctx, tr, nil)
	}
	// The CLI speaks the same loop-granular v2 schema as POST /v2/compile:
	// one api.Decision per loop, addressable and pinnable by stable LoopID.
	opts := []core.InferOption{core.WithPolicyName(*policyName)}
	if len(pins) > 0 {
		opts = append(opts, core.WithPins(pins))
	}
	resp, err := fw.PredictLoops(ctx, string(src), nil, opts...)
	if err != nil {
		return err
	}
	resp.File = *file
	if tr != nil {
		resp.Trace = core.TraceSpans(tr)
		printTrace(resp.Trace)
	}
	if resp.Truncated {
		fmt.Fprintf(os.Stderr, "%s: deadline expired, decisions are best-so-far\n", cmd)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	if cmd == "brute" {
		for _, d := range resp.Loops {
			fmt.Printf("%-28s id %s  best VF=%-3d IF=%-3d  speedup over baseline %.3fx\n",
				fmt.Sprintf("%s/%s", *file, d.Label), d.Loop, d.VF, d.IF, d.PredictedSpeedup)
		}
		return nil
	}
	for _, d := range resp.Loops {
		origin := resp.Policy
		if d.Provenance.Origin == api.OriginPin {
			origin = "pinned"
		}
		fmt.Fprintf(os.Stderr, "loop %s [id %s] (%s): VF=%d IF=%d\n", d.Label, d.Loop, origin, d.VF, d.IF)
	}
	fmt.Print(resp.Annotated)
	return nil
}

// printTrace renders a span block as an indented stderr table, mirroring
// the `trace` array of a /v2/compile?trace=1 response.
func printTrace(spans []api.TraceSpan) {
	for _, sp := range spans {
		label := sp.Name
		if sp.Detail != "" {
			label += " (" + sp.Detail + ")"
		}
		fmt.Fprintf(os.Stderr, "trace %8dµs %10dµs  %s%s\n",
			sp.StartMicros, sp.DurationMicros, strings.Repeat("  ", sp.Depth), label)
	}
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	file := fs.String("file", "", "C source file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("explain: -file is required")
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadSource(*file, string(src), nil); err != nil {
		return err
	}
	for i := 0; i < fw.NumSamples(); i++ {
		u := fw.Units()[i]
		fmt.Printf("=== %s ===\n", u.Name)
		legal := deps.Analyze(u.Loop)
		if legal.MaxVF >= deps.Unlimited {
			fmt.Println("dependence analysis: no loop-carried dependence, any VF legal")
		} else {
			fmt.Printf("dependence analysis: max legal VF %d (%s)\n", legal.MaxVF, legal.Reason)
		}
		cvf, cifc := fw.BaselineChoice(i)
		fmt.Printf("baseline cost model decision (VF=%d, IF=%d):\n", cvf, cifc)
		fmt.Print(fw.Explain(i, cvf, cifc))
		bvf, bifc := fw.BruteForceLabel(i)
		fmt.Printf("brute-force best (VF=%d, IF=%d):\n", bvf, bifc)
		fmt.Print(fw.Explain(i, bvf, bifc))
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	file := fs.String("file", "", "C source file (required)")
	policyName := fs.String("policy", "",
		"also report this policy's chosen cell: "+strings.Join(policy.List(), ", "))
	timeout := fs.Duration("timeout", 0, "bound the grid walk and policy decision")
	load := fs.String("load", "", "trained snapshot (required for model-backed policies like rl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("sweep: -file is required")
	}
	if *policyName == "nns" {
		// nns needs a labelled in-process corpus a checkpoint cannot carry.
		return fmt.Errorf("sweep: -policy nns needs an in-process corpus and is unavailable here; use annotate -policy nns")
	}
	if *load == "" && policyNeedsModel(*policyName) {
		return fmt.Errorf("sweep: -policy %s needs trained state; pass -load model.gob", *policyName)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The same stateless grid computation backs the service's /v1/sweep.
	fw := core.New(core.DefaultConfig())
	if *load != "" {
		if err := fw.LoadModelFile(*load); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded model from %s (version %s)\n", *load, fw.ModelVersion())
	}
	var opts []core.InferOption
	if *policyName != "" {
		opts = append(opts, core.WithPolicyName(*policyName))
	}
	sw, err := fw.SweepSource(ctx, string(src), nil, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweeping loop %s [id %s]\n", sw.Loop, sw.ID)
	fmt.Printf("%-8s", "")
	for _, ifc := range sw.IFs {
		fmt.Printf("%10s", fmt.Sprintf("IF=%d", ifc))
	}
	fmt.Println()
	for i, vf := range sw.VFs {
		fmt.Printf("VF=%-5d", vf)
		for j := range sw.IFs {
			fmt.Printf("%10.3f", sw.Speedup[i][j])
		}
		fmt.Println()
	}
	if sw.Policy != "" {
		suffix := ""
		if sw.Truncated {
			suffix = " (truncated search)"
		}
		fmt.Printf("policy %s chooses VF=%d IF=%d%s\n", sw.Policy, sw.ChosenVF, sw.ChosenIF, suffix)
	}
	return nil
}
