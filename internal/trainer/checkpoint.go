package trainer

import (
	"encoding/gob"
	"fmt"
	"os"

	"neurovec/internal/nn"
)

// checkpointState is the training section of a checkpoint, appended after
// the model snapshot (header + weights) in the same gob stream. Together
// with the Adam state that follows it, it is everything a resumed run needs
// beyond the weights: RNG streams are a pure function of (Seed, iteration),
// so no generator state is serialized.
//
// Only fields that determine the run's numbers belong here. Execution knobs
// (worker count, checkpoint cadence, output path) are deliberately absent so
// checkpoint bytes are identical for any -jobs value — the property the CI
// smoke test pins with cmp.
type checkpointState struct {
	// Iteration counts completed PPO iterations; resume continues here.
	Iteration int
	// Seed is the base seed every derived RNG stream mixes from.
	Seed int64
	// Corpus / GenN / Dir rebuild the training corpus on resume.
	Corpus string
	GenN   int
	Dir    string

	// The interleaved-evaluation schedule and spec: part of the math because
	// the learning curve is part of the checkpoint. New always writes GenN
	// and "costmodel" into EvalGenN and EvalBaseline; they stay here so the
	// checkpoint format, and resume from older checkpoints, do not change.
	EvalEvery    int
	EvalCorpus   string
	EvalGenN     int
	EvalBaseline string
	EvalOracle   string

	// Learning curves from iteration 0.
	RewardMean []float64
	Loss       []float64
	Steps      []int
	Curve      []EvalPoint
}

// writeCheckpoint atomically writes the full checkpoint — model snapshot,
// training state, optimizer state — to cfg.CheckpointPath via a temp file
// and rename, so a crash mid-write never corrupts the previous checkpoint.
func (t *Trainer) writeCheckpoint() error {
	path := t.cfg.CheckpointPath
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("trainer: checkpoint: %w", err)
	}
	err = t.fw.SaveModelWith(f, func(enc *gob.Encoder) error {
		if err := enc.Encode(t.state); err != nil {
			return fmt.Errorf("trainer: encode state: %w", err)
		}
		return nn.EncodeAdamState(enc, t.opt, t.agent.Params())
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trainer: checkpoint: %w", err)
	}
	t.ckptWritten = true
	return nil
}

// readCheckpoint restores the model and training sections from path into
// t.fw, t.state, and t.opt. The framework's agent is rebuilt by the model
// section before the training section is decoded, so the Adam moments land
// on the restored parameters.
func (t *Trainer) readCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trainer: resume: %w", err)
	}
	defer f.Close()
	return t.fw.LoadModelWith(f, func(dec *gob.Decoder) error {
		if err := dec.Decode(&t.state); err != nil {
			return fmt.Errorf("trainer: %s has no training state (plain model snapshot?): %w", path, err)
		}
		t.opt = nn.NewAdam(t.fw.Agent().Cfg.LR)
		return nn.DecodeAdamState(dec, t.opt, t.fw.Agent().Params())
	})
}
