package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"neurovec/internal/rl"
	"neurovec/internal/trainer"
)

// trainOpts carries the parsed `neurovec train` flags.
type trainOpts struct {
	corpus          string
	dir             string
	n               int
	samples         int
	iters           int
	batch           int
	lr              float64
	seed            int64
	space           string
	jobs            int
	checkpointEvery int
	evalEvery       int
	evalCorpus      string
	resume          string
	out             string
	save            string
	log             *logOpts
}

// trainFlagSet builds the `neurovec train` flag set. It is a separate
// constructor so the documentation check can verify that every flag the
// training guide mentions actually exists.
func trainFlagSet() (*flag.FlagSet, *trainOpts) {
	o := &trainOpts{}
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	fs.StringVar(&o.corpus, "corpus", "generated",
		"training corpus: comma-separated suites polybench, mibench, figure7, tsvc, generated (shared with eval)")
	fs.StringVar(&o.dir, "dir", "", "also train on every .c file under this directory")
	fs.IntVar(&o.n, "n", 1000, "size of the generated suite")
	fs.IntVar(&o.samples, "samples", 0, "alias for -n (historical name)")
	fs.IntVar(&o.iters, "iters", 30, "total PPO iterations (with -resume: the new total)")
	fs.IntVar(&o.batch, "batch", 200, "rollout batch size (compilations per iteration)")
	fs.Float64Var(&o.lr, "lr", 5e-4, "learning rate")
	fs.Int64Var(&o.seed, "seed", 1, "seed; fixes weights, stats, and checkpoint bytes at any -jobs")
	fs.StringVar(&o.space, "space", "discrete", "action space: discrete, cont1, cont2")
	fs.IntVar(&o.jobs, "jobs", 0, "parallel rollout workers (default GOMAXPROCS; never changes the numbers)")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 0,
		"write a checkpoint every N iterations (0 = final only; needs -out)")
	fs.IntVar(&o.evalEvery, "eval-every", 0,
		"score the in-progress agent vs the baseline every N iterations (0 = off)")
	fs.StringVar(&o.evalCorpus, "eval-corpus", "", "evaluation corpus for -eval-every (default: -corpus)")
	fs.StringVar(&o.resume, "resume", "", "resume training from this checkpoint (corpus, seed, and hyperparameters come from it)")
	fs.StringVar(&o.out, "out", "", "checkpoint path (the final file doubles as the serving snapshot)")
	fs.StringVar(&o.save, "save", "", "alias for -out (historical name)")
	o.log = addLogFlags(fs)
	return fs, o
}

// cmdTrain runs the parallel training pipeline: corpus-backed PPO with
// sharded rollout collection, periodic checkpoints, full resume, and an
// interleaved learning-curve evaluation.
func cmdTrain(args []string) error {
	fs, o := trainFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.out == "" {
		o.out = o.save
	}
	if o.samples > 0 {
		o.n = o.samples
	}
	if o.checkpointEvery > 0 && o.out == "" && o.resume == "" {
		return fmt.Errorf("train: -checkpoint-every needs -out")
	}
	logger, err := o.log.logger(os.Stderr)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}

	progress := func(p trainer.Progress) {
		fmt.Printf("iter %3d/%d  steps %7d  reward mean %+.4f  loss %.5f\n",
			p.Iteration, p.Total, p.Steps, p.RewardMean, p.Loss)
		if e := p.Eval; e != nil {
			fmt.Printf("  eval: speedup %.3fx  geomean %.3fx  oracle %.3fx  regret %.1f%%  agree %.1f%%\n",
				e.MeanSpeedup, e.GeoMeanSpeedup, e.MeanOracleSpeedup, 100*e.MeanRegret, 100*e.Agreement)
		}
		if p.Checkpoint != "" {
			logger.Info("checkpoint written", "path", p.Checkpoint, "iteration", p.Iteration)
		}
	}

	var tr *trainer.Trainer
	if o.resume != "" {
		out := o.out
		if out == "" {
			out = o.resume // keep writing where the interrupted run did
		}
		tr, err = trainer.Resume(trainer.Config{
			Jobs:            o.jobs,
			Iterations:      o.iters,
			CheckpointEvery: o.checkpointEvery,
			CheckpointPath:  out,
			Progress:        progress,
		}, o.resume)
		if err != nil {
			return err
		}
		logger.Info("resumed", "checkpoint", o.resume)
	} else {
		rc, err2 := trainRLConfig(o)
		if err2 != nil {
			return err2
		}
		tr, err = trainer.New(trainer.Config{
			RL:              rc,
			Corpus:          o.corpus,
			GenN:            o.n,
			Dir:             o.dir,
			Seed:            o.seed,
			Jobs:            o.jobs,
			Iterations:      o.iters,
			CheckpointEvery: o.checkpointEvery,
			CheckpointPath:  o.out,
			EvalEvery:       o.evalEvery,
			EvalCorpus:      o.evalCorpus,
			Progress:        progress,
		})
		if err != nil {
			return err
		}
	}
	// On resume the corpus comes from the checkpoint, not the flags.
	fmt.Printf("training on %d loop units from corpus %q (%s action space)\n",
		tr.Framework().NumSamples(), tr.Corpus(), tr.Framework().Agent().Cfg.Space)

	// Ctrl-C stops cleanly at the next iteration boundary; the trainer
	// writes a final checkpoint there when an output path is configured.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := tr.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) && res != nil {
			switch {
			case res.CheckpointWritten:
				logger.Warn("interrupted; resumable",
					"iteration", res.Iterations, "resume", res.CheckpointPath)
			case o.resume != "":
				logger.Warn("interrupted; no new checkpoint, previous one still valid",
					"iteration", res.Iterations, "checkpoint", o.resume)
			default:
				logger.Warn("interrupted; no checkpoint written (pass -out to make runs resumable)",
					"iteration", res.Iterations)
			}
		}
		return err
	}
	if res.ModelVersion != "" {
		logger.Info("model saved", "path", res.CheckpointPath, "model_version", res.ModelVersion)
	}
	return nil
}

// trainRLConfig maps the CLI flags onto PPO hyperparameters.
func trainRLConfig(o *trainOpts) (*rl.Config, error) {
	rc := rl.DefaultConfig(nil, nil)
	rc.Iterations = o.iters
	rc.Batch = o.batch
	rc.MiniBatch = o.batch / 4
	rc.LR = o.lr
	rc.Seed = o.seed
	switch o.space {
	case "discrete":
		rc.Space = rl.Discrete
	case "cont1":
		rc.Space = rl.Continuous1
	case "cont2":
		rc.Space = rl.Continuous2
	default:
		return nil, fmt.Errorf("unknown action space %q", o.space)
	}
	return &rc, nil
}
