package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"neurovec/internal/core"
	"neurovec/internal/evalharness"
	"neurovec/internal/policy"
	"neurovec/internal/rl"
)

// cmdEval runs a decision policy over an entire benchmark corpus against a
// baseline and the brute-force oracle, and writes the aggregate report —
// the paper's suite-level claim as a command. The report is deterministic
// at a fixed seed (byte-identical across runs and -jobs settings), which is
// what lets CI pin it as a regression gate.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	policyName := fs.String("policy", core.DefaultPolicy,
		"policy under evaluation: "+strings.Join(policy.List(), ", "))
	baseline := fs.String("baseline", "costmodel", "policy anchoring speedup")
	oracle := fs.String("oracle", "brute", "policy anchoring regret")
	corpusSpec := fs.String("corpus", "generated",
		"comma-separated suites: polybench, mibench, figure7, tsvc, generated")
	dir := fs.String("dir", "", "also evaluate every .c file under this directory (suite \"dir\")")
	n := fs.Int("n", 16, "size of the generated suite (matches the /v1/eval default)")
	seed := fs.Int64("seed", 1, "seed for corpus generation and the framework")
	jobs := fs.Int("jobs", 0, "parallel evaluation workers (default GOMAXPROCS; never changes the numbers)")
	out := fs.String("out", "", "write the report to this path (default stdout)")
	format := fs.String("format", "json", "report format: json or csv")
	timeout := fs.Duration("timeout", 0,
		"per-inference budget; deadline-aware policies degrade to best-so-far")
	timing := fs.Bool("timing", false,
		"include the volatile wall-clock block in the JSON report (breaks byte-identity)")
	nTrain := fs.Int("samples", 800, "synthetic training samples (model-backed policies without -load)")
	iters := fs.Int("iters", 25, "PPO iterations (model-backed policies without -load)")
	load := fs.String("load", "", "load a trained snapshot (train -out) instead of training")
	lopts := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("eval: unknown format %q (want json or csv)", *format)
	}
	logger, err := lopts.logger(os.Stderr)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}

	corpus, err := evalharness.BuildCorpus(*corpusSpec, *n, *seed)
	if err != nil {
		return err
	}
	if *dir != "" {
		extra, err := evalharness.FromDir("dir", *dir)
		if err != nil {
			return err
		}
		corpus.Add(extra.Items...)
		corpus.Sort()
	}

	needsModel := policyNeedsModel(*policyName) || policyNeedsModel(*baseline) || policyNeedsModel(*oracle)
	usesNNS := *policyName == "nns" || *baseline == "nns" || *oracle == "nns"
	if *load != "" && usesNNS {
		return fmt.Errorf("eval: nns trains in-process and cannot use -load (checkpoints carry no corpus for the NNS index)")
	}
	var fw *core.Framework
	switch {
	case *load != "":
		fw = seededFramework(*seed)
		if err := fw.LoadModelFile(*load); err != nil {
			return err
		}
		logger.Info("loaded model", "path", *load, "model_version", fw.ModelVersion())
	case needsModel:
		var rc *rl.Config
		fw, rc, err = buildTrainer(*nTrain, *iters, 200, 5e-4, *seed, "discrete")
		if err != nil {
			return err
		}
		logger.Info("training agent", "units", fw.NumSamples(), "iterations", *iters)
		fw.Train(rc)
	default:
		fw = seededFramework(*seed)
	}

	report, err := evalharness.New(fw).Run(context.Background(), corpus, evalharness.Options{
		Policy:   *policyName,
		Baseline: *baseline,
		Oracle:   *oracle,
		Jobs:     *jobs,
		Timeout:  *timeout,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		err = report.WriteJSON(w, *timing)
	case "csv":
		err = report.WriteCSV(w)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		logger.Info("report written", "path", *out, "format", *format)
	}
	fmt.Fprint(os.Stderr, report.Summary())
	if t := report.Timing; t != nil {
		fmt.Fprintf(os.Stderr, "wall %.0fms over %d workers; per-file p50 %.1fms p99 %.1fms\n",
			t.WallMS, t.Jobs, t.FileP50MS, t.FileP99MS)
	}
	return nil
}
