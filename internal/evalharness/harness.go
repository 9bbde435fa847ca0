// Package evalharness evaluates vectorization decision policies over whole
// benchmark corpora — the paper's aggregate claim (mean speedup over the
// baseline cost model, proximity to the brute-force oracle across suites)
// as a reusable, parallel experiment engine.
//
// A Harness shards a Corpus over a worker pool. Every file is compiled once
// (core.Framework.Compile); the evaluated policy, the baseline, and the
// oracle are then decided side by side on that one compile
// (core.Framework.Decide, the back half of PredictLoops, without rendering
// annotated source). The harness folds per-file speedup, oracle regret, and
// decision agreement into per-suite and overall aggregates. The
// result is a deterministic Report: files and suites are in canonical
// order, numbers are a pure function of (corpus, spec), and the volatile
// wall-clock block is kept separate — so two runs at the same seed render
// byte-identical JSON/CSV regardless of the worker count, which is what
// makes the report usable as a CI regression gate.
//
// Learned policies pay one code2vec forward pass per loop; the harness runs
// every decision with a core.LoopLRU armed — the same per-loop cache
// serving uses, keyed by (checkpoint, LoopID) — so repeated runs (and a
// cache shared with the server across hot-reloads) skip the embedding cost.
// A framework without a checkpoint fingerprint (trained in process) bypasses
// the cache, since retraining would not change its key.
//
//	h := evalharness.New(fw)
//	corpus, _ := evalharness.BuildCorpus("polybench,mibench", 0, 1)
//	report, _ := h.Run(ctx, corpus, evalharness.Options{Policy: "rl", Seed: 1})
//	report.WriteJSON(os.Stdout, false)
package evalharness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/obs"
	"neurovec/internal/policy"
)

// Options configures one evaluation run.
type Options struct {
	// Policy is the registry name of the method under evaluation. Required.
	Policy string
	// Baseline names the policy whose cycles anchor speedup (default
	// "costmodel", the paper's LLVM baseline). Any registered policy works,
	// so two learned methods can be compared head to head.
	Baseline string
	// Oracle names the policy whose cycles anchor regret (default "brute",
	// the exhaustive search).
	Oracle string
	// Jobs is the worker-pool width (default GOMAXPROCS). It never affects
	// the report's numbers, only the wall time.
	Jobs int
	// Timeout bounds each role's work on a file: the evaluated policy's
	// budget covers the file's shared compile plus its decide step, and the
	// baseline and the oracle each get their own budget for their decide
	// step. Deadline-aware policies degrade to their best-so-far answer and
	// mark the file Truncated; others record a per-file error. Zero means
	// unbounded.
	Timeout time.Duration
	// Seed is stamped into the report spec; corpus generation upstream and
	// stochastic policies (via the host seed) must already agree with it
	// for the determinism contract to hold.
	Seed int64
}

// Harness evaluates policies over corpora against one framework. Create it
// once and reuse it: the per-loop cache carries across runs.
type Harness struct {
	fw    *core.Framework
	loops *core.LoopLRU
}

// New returns a harness over fw with a fresh per-loop cache.
func New(fw *core.Framework) *Harness {
	return &Harness{fw: fw, loops: core.NewLoopCache(core.DefaultLoopCacheEntries)}
}

// WithLoopCache shares an existing per-loop cache (e.g. the serving
// layer's, surviving model hot-reloads) and returns the harness. A nil
// cache keeps the harness's own.
func (h *Harness) WithLoopCache(c *core.LoopLRU) *Harness {
	if c != nil {
		h.loops = c
	}
	return h
}

// Run evaluates opts.Policy over the corpus. Per-file failures (parse
// errors, loop-free programs, per-inference deadlines on non-degrading
// policies) are recorded in the report; Run itself fails only on unusable
// options, unresolvable policies, or parent-context cancellation.
func (h *Harness) Run(ctx context.Context, corpus *Corpus, opts Options) (*Report, error) {
	if corpus == nil || len(corpus.Items) == 0 {
		return nil, errors.New("evalharness: empty corpus")
	}
	if opts.Policy == "" {
		return nil, errors.New("evalharness: Options.Policy is required")
	}
	if opts.Baseline == "" {
		opts.Baseline = "costmodel"
	}
	if opts.Oracle == "" {
		opts.Oracle = "brute"
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}

	// Resolve every role up front so a misconfigured run (unknown policy,
	// untrained agent) fails before any simulation work.
	roles := [3]string{opts.Policy, opts.Baseline, opts.Oracle}
	var pols [3]policy.Policy
	version := h.fw.ModelVersion()
	for i, name := range roles {
		p, err := h.fw.Policy(name)
		if err != nil {
			return nil, fmt.Errorf("evalharness: resolve %s: %w", name, err)
		}
		pols[i] = p
	}

	started := time.Now() //lint:allow detpkg the report's timing section measures real wall-clock latency
	files := make([]FileResult, len(corpus.Items))
	jobs := opts.Jobs
	if jobs > len(corpus.Items) {
		jobs = len(corpus.Items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(corpus.Items) || ctx.Err() != nil {
					return
				}
				files[i] = h.evalOne(ctx, corpus.Items[i], pols, opts)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	report := &Report{
		Spec: Spec{
			APIVersion:   api.Version,
			Policy:       opts.Policy,
			Baseline:     opts.Baseline,
			Oracle:       opts.Oracle,
			Seed:         opts.Seed,
			Arch:         h.fw.Arch().Name,
			ModelVersion: version,
			TimeoutMS:    opts.Timeout.Milliseconds(),
			Suites:       corpus.Suites(),
			Files:        len(corpus.Items),
		},
		Files: files,
	}
	for _, suite := range report.Spec.Suites {
		report.Suites = append(report.Suites, aggregate(suite, files))
	}
	overall := aggregate("", files)
	overall.Suite = ""
	report.Overall = overall
	//lint:allow detpkg the report's timing section measures real wall-clock latency
	report.Timing = buildTiming(files, time.Since(started), jobs)
	return report, nil
}

// evalOne scores one corpus item. It compiles the source once and runs the
// policy's, the baseline's, and the oracle's decide steps on that compile;
// identical role names share one decision. Decisions come from the same
// loop-granular v2 path PredictLoops serves, so the report's per-file
// decisions are the same api.Decision objects the HTTP service returns from
// POST /v2/compile — one schema across both surfaces. Nothing is rendered:
// the report has no use for annotated source.
func (h *Harness) evalOne(ctx context.Context, it Item, pols [3]policy.Policy, opts Options) FileResult {
	ctx, fsp := obs.StartSpan(ctx, "eval_file")
	fsp.Annotate(it.Suite + "/" + it.Name)
	defer fsp.End()
	res := FileResult{Suite: it.Suite, Name: it.Name}

	budget := func(ctx context.Context) (context.Context, context.CancelFunc) {
		if opts.Timeout > 0 {
			return context.WithTimeout(ctx, opts.Timeout)
		}
		return ctx, func() {}
	}
	var c *core.Compiled
	infs := make(map[string]*api.CompileResponse, 3)
	decide := func(ctx context.Context, p policy.Policy) (*api.CompileResponse, error) {
		if inf, ok := infs[p.Name()]; ok {
			return inf, nil
		}
		inf, err := h.fw.Decide(ctx, c, core.WithPolicy(p), core.WithLoopCache(h.loops))
		if err != nil {
			return nil, err
		}
		infs[p.Name()] = inf
		return inf, nil
	}
	run := func(ctx context.Context, p policy.Policy) (*api.CompileResponse, error) {
		ctx, cancel := budget(ctx)
		defer cancel()
		return decide(ctx, p)
	}

	// The evaluated policy's budget covers the shared compile too. A
	// policy that cannot degrade fails on a spent budget before compiling,
	// as PredictLoops does.
	started := time.Now() //lint:allow detpkg per-file latency is a report field, not decision input
	pctx, cancel := budget(ctx)
	err := pctx.Err()
	if err == nil || policy.IsDeadlineAware(pols[0]) {
		c, err = h.fw.Compile(pctx, it.Source, it.Params)
	}
	var polInf, baseInf, oracleInf *api.CompileResponse
	if err == nil {
		polInf, err = decide(pctx, pols[0])
	}
	cancel()
	res.latency = time.Since(started) //lint:allow detpkg per-file latency is a report field, not decision input
	if err == nil {
		baseInf, err = run(ctx, pols[1])
	}
	if err == nil {
		// The oracle's exhaustive sweep dominates eval wall time; give it a
		// dedicated span so the cost is visible next to plain inference.
		octx, osp := obs.StartSpan(ctx, "oracle")
		osp.Annotate(pols[2].Name())
		oracleInf, err = run(octx, pols[2])
		osp.End()
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}

	// The MiBench regime: fixed scalar work proportional to the baseline's
	// cycles dilutes loop-level wins into end-to-end numbers.
	scalarWork := it.ScalarWorkFactor * baseInf.PredictedCycles
	res.Loops = len(polInf.Loops)
	res.Decisions = polInf.Loops
	res.BaselineCycles = baseInf.PredictedCycles + scalarWork
	res.PolicyCycles = polInf.PredictedCycles + scalarWork
	res.OracleCycles = oracleInf.PredictedCycles + scalarWork
	res.Speedup = safeRatio(res.BaselineCycles, res.PolicyCycles)
	res.OracleSpeedup = safeRatio(res.BaselineCycles, res.OracleCycles)
	res.Regret = safeRatio(res.PolicyCycles, res.OracleCycles) - 1
	res.Truncated = polInf.Truncated || baseInf.Truncated || oracleInf.Truncated

	// Agreement matches decisions by stable LoopID: both decisions share
	// one compile, so IDs line up exactly.
	oracleBy := make(map[api.LoopID][2]int, len(oracleInf.Loops))
	for _, d := range oracleInf.Loops {
		oracleBy[d.Loop] = [2]int{d.VF, d.IF}
	}
	for _, d := range polInf.Loops {
		if o, ok := oracleBy[d.Loop]; ok && o[0] == d.VF && o[1] == d.IF {
			res.AgreedLoops++
		}
	}
	return res
}

func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}
