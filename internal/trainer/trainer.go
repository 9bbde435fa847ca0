package trainer

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"neurovec/internal/core"
	"neurovec/internal/evalharness"
	"neurovec/internal/nn"
	"neurovec/internal/obs"
	"neurovec/internal/rl"
)

// Config assembles one training run. The zero value of every optional field
// picks a sensible default; only corpus-selection fields are commonly set.
type Config struct {
	// Core overrides the framework configuration (architecture, simulator,
	// embedding sizes). Nil means core.DefaultConfig(). Resuming a run must
	// supply the same Core configuration the original run used: the
	// checkpoint stores the embedding and agent configs but not the
	// simulator's.
	Core *core.Config
	// RL overrides the PPO hyperparameters. Nil means the paper's defaults
	// with the architecture's action space. Ignored on resume (the
	// checkpoint's stored config wins, so a resumed run reproduces the
	// original).
	RL *rl.Config

	// Corpus is the training-corpus spec, a comma-separated list of built-in
	// suites (polybench, mibench, figure7, tsvc, generated); see
	// evalharness.BuildCorpus. Default "generated".
	Corpus string
	// GenN sizes the generated suite (default 16).
	GenN int
	// Dir optionally adds every .c file under a directory (suite "dir").
	Dir string
	// Seed drives corpus generation, weight initialisation, and every
	// derived RNG stream (default 1).
	Seed int64

	// Jobs bounds rollout-collection parallelism (default GOMAXPROCS). It
	// never affects the trained weights or statistics, only the wall time.
	Jobs int
	// Iterations is the total PPO iteration count (default: the RL config's
	// Iterations, else the paper default). On resume it is the new total, so
	// passing the original value finishes an interrupted run exactly; it is
	// an execution knob, not part of the checkpointed math.
	Iterations int

	// CheckpointPath is where checkpoints are written (atomically, via a
	// temp file + rename). Empty disables checkpointing entirely.
	CheckpointEvery int // write every N iterations (0 = final only)
	CheckpointPath  string

	// EvalEvery interleaves an evaluation of the in-progress agent every N
	// iterations (0 = off). Evaluations run only on exact multiples, so the
	// learning curve of a killed-and-resumed run matches the uninterrupted
	// one regardless of where the interruption fell.
	EvalEvery int
	// EvalCorpus is the evaluation-corpus spec (default: Corpus). Its
	// generated suite has GenN programs, and learning-curve speedup is
	// anchored on the "costmodel" policy.
	EvalCorpus string
	// EvalOracle anchors learning-curve regret (default "brute").
	EvalOracle string

	// Progress, when set, is invoked after every completed iteration with
	// the iteration's statistics — the hook the CLI uses for live output and
	// the service for job status.
	Progress func(Progress)
}

// Progress reports one completed training iteration.
type Progress struct {
	Iteration  int // 1-based index of the iteration that just finished
	Total      int // total planned iterations
	Steps      int // cumulative environment steps (simulated compilations)
	RewardMean float64
	Loss       float64
	// Eval is non-nil when this iteration ran an interleaved evaluation.
	Eval *EvalPoint
	// Checkpoint is the path just written, or "" when no checkpoint was due.
	Checkpoint string
}

// EvalPoint is one learning-curve sample: the in-progress agent scored over
// the evaluation corpus against the baseline and oracle policies.
type EvalPoint struct {
	Iteration         int     `json:"iteration"`
	Steps             int     `json:"steps"`
	RewardMean        float64 `json:"reward_mean"`
	MeanSpeedup       float64 `json:"mean_speedup"`
	GeoMeanSpeedup    float64 `json:"geomean_speedup"`
	MeanOracleSpeedup float64 `json:"mean_oracle_speedup"`
	MeanRegret        float64 `json:"mean_regret"`
	Agreement         float64 `json:"agreement"`
}

// Result summarises a finished (or interrupted) run.
type Result struct {
	// Stats carries the full learning curves from iteration 0, including
	// iterations restored from a resumed checkpoint.
	Stats *rl.Stats
	// Curve holds the interleaved evaluation points, if EvalEvery was set.
	Curve []EvalPoint
	// Iterations is the number of completed iterations (the total across
	// resume boundaries); StartIteration is where this run began (0 unless
	// resumed).
	Iterations     int
	StartIteration int
	// Units is the number of training loop units loaded from the corpus.
	Units int
	// ModelVersion fingerprints the last checkpoint written ("" when
	// checkpointing was disabled, even on a resumed run: its weights have
	// moved past the checkpoint it resumed from).
	ModelVersion   string
	CheckpointPath string
	// CheckpointWritten reports that this run wrote CheckpointPath at least
	// once — distinguishing "resumable at that path" from a configured path
	// that was never reached (e.g. cancellation before the first iteration).
	CheckpointWritten bool
}

// Trainer is one configured training run over one framework. Create it with
// New or Resume, then call Run; a Trainer is single-use and not safe for
// concurrent access.
type Trainer struct {
	cfg        Config
	fw         *core.Framework
	agent      *rl.Agent
	opt        *nn.Adam
	state      checkpointState
	total      int
	jobs       int
	evalCorpus *evalharness.Corpus
	// ckptWritten records that this run wrote cfg.CheckpointPath at least
	// once (see Result.CheckpointWritten).
	ckptWritten bool
}

// New builds a fresh run: framework from Config.Core, training corpus loaded
// as units, untrained agent initialised from Config.RL at Config.Seed.
func New(cfg Config) (*Trainer, error) {
	applyDefaults(&cfg)
	base := core.DefaultConfig()
	if cfg.Core != nil {
		base = *cfg.Core
	}
	base.Seed = cfg.Seed
	fw := core.New(base)
	if err := loadCorpus(fw, cfg.Corpus, cfg.GenN, cfg.Dir, cfg.Seed); err != nil {
		return nil, err
	}
	// The iteration total is an execution knob (resume may extend it), so it
	// is canonicalized out of the agent config the checkpoint header stores:
	// a run stopped at -iters 2 and one stopped mid-way to -iters 30 write
	// identical bytes at the same iteration.
	rlCfg := rl.DefaultConfig(nil, nil)
	if cfg.RL != nil {
		rlCfg = *cfg.RL
	}
	rlCfg.Iterations = 0
	agent := fw.InitAgent(&rlCfg)
	t := &Trainer{
		cfg:   cfg,
		fw:    fw,
		agent: agent,
		opt:   nn.NewAdam(agent.Cfg.LR),
		state: checkpointState{
			Seed:         cfg.Seed,
			Corpus:       cfg.Corpus,
			GenN:         cfg.GenN,
			Dir:          cfg.Dir,
			EvalEvery:    cfg.EvalEvery,
			EvalCorpus:   cfg.EvalCorpus,
			EvalGenN:     cfg.GenN,
			EvalBaseline: "costmodel",
			EvalOracle:   cfg.EvalOracle,
		},
	}
	if err := t.finishSetup(); err != nil {
		return nil, err
	}
	return t, nil
}

// Resume restores a run from a checkpoint written by a previous Run: model
// weights, optimizer moments, iteration counter, and curves all continue
// where they stopped, and the training corpus is rebuilt from the
// checkpoint's own spec so the remaining iterations reproduce the
// uninterrupted run bit for bit. Config fields that define the run's math
// (corpus, seed, RL hyperparameters, eval schedule) are taken from the
// checkpoint; cfg supplies only the execution knobs — Iterations (the new
// total), Jobs, CheckpointEvery/CheckpointPath, Core, and Progress.
func Resume(cfg Config, checkpointPath string) (*Trainer, error) {
	base := core.DefaultConfig()
	if cfg.Core != nil {
		base = *cfg.Core
	}
	fw := core.New(base)
	t := &Trainer{cfg: cfg, fw: fw}
	if err := t.readCheckpoint(checkpointPath); err != nil {
		return nil, err
	}
	t.agent = fw.Agent()
	// The framework seed grounds stochastic policies during interleaved
	// evals; restore it alongside everything else.
	fw.Cfg.Seed = t.state.Seed
	if err := loadCorpus(fw, t.state.Corpus, t.state.GenN, t.state.Dir, t.state.Seed); err != nil {
		return nil, err
	}
	if err := t.finishSetup(); err != nil {
		return nil, err
	}
	return t, nil
}

// applyDefaults normalises a fresh-run configuration in place.
func applyDefaults(cfg *Config) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Corpus == "" {
		cfg.Corpus = evalharness.SuiteGenerated
	}
	if cfg.GenN <= 0 {
		cfg.GenN = 16
	}
	if cfg.EvalCorpus == "" {
		cfg.EvalCorpus = cfg.Corpus
	}
	if cfg.EvalOracle == "" {
		cfg.EvalOracle = "brute"
	}
}

// finishSetup resolves the iteration target, worker count, and evaluation
// corpus shared by New and Resume.
func (t *Trainer) finishSetup() error {
	t.total = t.cfg.Iterations
	if t.total <= 0 && t.cfg.RL != nil {
		t.total = t.cfg.RL.Iterations
	}
	if t.total <= 0 {
		t.total = rl.DefaultConfig(nil, nil).Iterations
	}
	t.jobs = t.cfg.Jobs
	if t.jobs <= 0 {
		t.jobs = runtime.GOMAXPROCS(0)
	}
	if t.state.EvalEvery > 0 {
		corpus, err := evalharness.BuildCorpus(t.state.EvalCorpus, t.state.EvalGenN, t.state.Seed)
		if err != nil {
			return fmt.Errorf("trainer: eval corpus: %w", err)
		}
		t.evalCorpus = corpus
	}
	return nil
}

// loadCorpus loads a training corpus into the framework as units. Programs
// without vectorizable loops are skipped; anything else that fails to load
// is an error (a training corpus should be clean).
func loadCorpus(fw *core.Framework, spec string, genN int, dir string, seed int64) error {
	corpus, err := evalharness.BuildCorpus(spec, genN, seed)
	if err != nil {
		return fmt.Errorf("trainer: corpus: %w", err)
	}
	if dir != "" {
		extra, err := evalharness.FromDir("dir", dir)
		if err != nil {
			return fmt.Errorf("trainer: corpus dir: %w", err)
		}
		corpus.Add(extra.Items...)
		corpus.Sort()
	}
	for _, it := range corpus.Items {
		err := fw.LoadSource(it.Suite+"/"+it.Name, it.Source, it.Params)
		if errors.Is(err, core.ErrNoLoops) {
			continue
		}
		if err != nil {
			return fmt.Errorf("trainer: %w", err)
		}
	}
	if fw.NumSamples() == 0 {
		return fmt.Errorf("trainer: corpus %q contains no vectorizable loops", spec)
	}
	return nil
}

// Framework exposes the underlying framework (e.g. for scoring the trained
// agent after Run).
func (t *Trainer) Framework() *core.Framework { return t.fw }

// Corpus returns the training-corpus spec the run uses — on a resumed run,
// the one restored from the checkpoint, not whatever the caller passed.
func (t *Trainer) Corpus() string { return t.state.Corpus }

// Run executes the remaining iterations: parallel rollout collection, merged
// gradient updates, interleaved evaluation, periodic checkpoints. It stops
// early when ctx is cancelled, writing a final checkpoint at the completed
// iteration boundary (when checkpointing is configured) and returning the
// partial result alongside the context error; everything checkpointed
// resumes exactly.
func (t *Trainer) Run(ctx context.Context) (*Result, error) {
	start := t.state.Iteration
	lastCkpt := start // iterations already durable in the resume source
	steps := 0
	if n := len(t.state.Steps); n > 0 {
		steps = t.state.Steps[n-1]
	}
	for iter := start; iter < t.total; iter++ {
		if err := ctx.Err(); err != nil {
			// Preserve completed work: a cancellation checkpoint sits on an
			// iteration boundary, so its bytes match a scheduled write there.
			if t.cfg.CheckpointPath != "" && t.state.Iteration > lastCkpt {
				if werr := t.writeCheckpointTraced(ctx); werr == nil {
					lastCkpt = t.state.Iteration
				}
			}
			return t.result(start), err
		}
		_, rsp := obs.StartSpan(ctx, "rollout")
		batch := t.agent.CollectBatch(t.fw, t.state.Seed, iter, t.jobs)
		rsp.End()
		_, usp := obs.StartSpan(ctx, "update")
		loss := t.agent.UpdateBatch(batch, t.opt, t.state.Seed, iter)
		usp.End()
		// The weights have moved past any checkpoint, including the one a
		// resumed run started from; the next checkpoint names them again.
		t.fw.Retrained()
		steps += batch.Len()
		t.state.RewardMean = append(t.state.RewardMean, batch.RewardMean())
		t.state.Loss = append(t.state.Loss, loss)
		t.state.Steps = append(t.state.Steps, steps)
		t.state.Iteration = iter + 1

		var evalPt *EvalPoint
		if t.state.EvalEvery > 0 && (iter+1)%t.state.EvalEvery == 0 {
			pt, err := t.evalPoint(ctx, iter+1, steps, batch.RewardMean())
			if err != nil {
				return t.result(start), err
			}
			t.state.Curve = append(t.state.Curve, pt)
			evalPt = &pt
		}

		ckpt := ""
		done := iter+1 == t.total
		if t.cfg.CheckpointPath != "" &&
			(done || (t.cfg.CheckpointEvery > 0 && (iter+1)%t.cfg.CheckpointEvery == 0)) {
			if err := t.writeCheckpointTraced(ctx); err != nil {
				return t.result(start), err
			}
			lastCkpt = t.state.Iteration
			ckpt = t.cfg.CheckpointPath
		}

		if t.cfg.Progress != nil {
			t.cfg.Progress(Progress{
				Iteration:  iter + 1,
				Total:      t.total,
				Steps:      steps,
				RewardMean: batch.RewardMean(),
				Loss:       loss,
				Eval:       evalPt,
				Checkpoint: ckpt,
			})
		}
	}
	return t.result(start), nil
}

// evalPoint scores the in-progress agent over the evaluation corpus. A fresh
// harness per round guarantees no embedding computed under earlier weights
// is ever reused (training advances the embedder too, and mid-training
// weights have no model-version fingerprint to key a shared cache by).
func (t *Trainer) evalPoint(ctx context.Context, iteration, steps int, rewardMean float64) (EvalPoint, error) {
	ctx, sp := obs.StartSpan(ctx, "eval")
	sp.Annotate(fmt.Sprintf("iteration=%d", iteration))
	defer sp.End()
	report, err := evalharness.New(t.fw).Run(ctx, t.evalCorpus, evalharness.Options{
		Policy:   "rl",
		Baseline: t.state.EvalBaseline,
		Oracle:   t.state.EvalOracle,
		Jobs:     t.jobs,
		Seed:     t.state.Seed,
	})
	if err != nil {
		return EvalPoint{}, fmt.Errorf("trainer: eval at iteration %d: %w", iteration, err)
	}
	return EvalPoint{
		Iteration:         iteration,
		Steps:             steps,
		RewardMean:        rewardMean,
		MeanSpeedup:       report.Overall.MeanSpeedup,
		GeoMeanSpeedup:    report.Overall.GeoMeanSpeedup,
		MeanOracleSpeedup: report.Overall.MeanOracleSpeedup,
		MeanRegret:        report.Overall.MeanRegret,
		Agreement:         report.Overall.Agreement,
	}, nil
}

// writeCheckpointTraced wraps the checkpoint write in a "checkpoint" span so
// checkpoint latency lands in the stage histogram alongside rollout/update.
func (t *Trainer) writeCheckpointTraced(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "checkpoint")
	defer sp.End()
	return t.writeCheckpoint()
}

// result snapshots the run's outcome.
func (t *Trainer) result(start int) *Result {
	return &Result{
		Stats: &rl.Stats{
			RewardMean: t.state.RewardMean,
			Loss:       t.state.Loss,
			Steps:      t.state.Steps,
		},
		Curve:             t.state.Curve,
		Iterations:        t.state.Iteration,
		StartIteration:    start,
		Units:             t.fw.NumSamples(),
		ModelVersion:      t.fw.ModelVersion(),
		CheckpointPath:    t.cfg.CheckpointPath,
		CheckpointWritten: t.ckptWritten,
	}
}
