package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"neurovec/internal/code2vec"
	"neurovec/internal/nn"
	"neurovec/internal/rl"
)

// modelHeader stores the configuration needed to rebuild the networks
// before loading their weights.
type modelHeader struct {
	Embed code2vec.Config
	RL    rl.Config
	// Version is a fingerprint of the saved weights, stamped by SaveModel.
	// It identifies a checkpoint (for cache keys, /healthz, reload logs)
	// without the cost of re-hashing at load time. A header with an empty
	// Version is re-fingerprinted on load.
	Version string
}

// SaveModel writes the trained embedder + agent (configs and weights) to w.
// The paper's deployment story — "once the model is trained it can be
// plugged in as is for inference without further retraining" — is this
// snapshot.
func (f *Framework) SaveModel(w io.Writer) error { return f.SaveModelWith(w, nil) }

// SaveModelWith is SaveModel with an optional extra section appended to the
// same gob stream — the hook the training pipeline uses to store optimizer
// state and progress after the weights. Checkpoints written this way remain
// plain model snapshots to every reader that ignores the extra section
// (LoadModel, `neurovec serve -model`, `annotate -load`): loading simply
// stops after the weights.
func (f *Framework) SaveModelWith(w io.Writer, extra func(enc *gob.Encoder) error) error {
	if f.agent == nil {
		return fmt.Errorf("core: no trained agent to save")
	}
	f.modelVersion = fingerprintParams(f.agent.Params())
	enc := gob.NewEncoder(w)
	if err := enc.Encode(modelHeader{Embed: f.Cfg.Embed, RL: f.agent.Cfg, Version: f.modelVersion}); err != nil {
		return fmt.Errorf("core: encode header: %w", err)
	}
	// The agent's parameter set already includes the embedder's parameters
	// (end-to-end training), so one snapshot covers everything. Use the
	// same encoder: header and weights share one gob stream.
	if err := nn.EncodeParams(enc, f.agent.Params()); err != nil {
		return err
	}
	if extra != nil {
		return extra(enc)
	}
	return nil
}

// LoadModel restores a snapshot produced by SaveModel. The framework's
// loaded units are preserved; the embedder and agent are rebuilt with the
// stored configuration and weights. Trailing checkpoint sections (training
// state written by SaveModelWith) are ignored.
func (f *Framework) LoadModel(r io.Reader) error { return f.LoadModelWith(r, nil) }

// LoadModelWith is LoadModel with an optional extra section read from the
// same gob stream after the weights — the counterpart of SaveModelWith used
// by training resume. The callback sees the stream positioned exactly where
// the save-side callback wrote.
func (f *Framework) LoadModelWith(r io.Reader, extra func(dec *gob.Decoder) error) error {
	dec := gob.NewDecoder(r)
	var h modelHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("core: decode header: %w", err)
	}
	// The new model and agent are built aside and committed only once the
	// weights decode, so a truncated or corrupt checkpoint leaves the
	// framework serving its previous model. Until then the agent's adapter
	// reads the new embedder through a staging framework. A framework
	// without an agent still holds New's seeded initial model, which
	// NewModel rebuilds bit for bit: it is dropped for the load and rebuilt
	// on failure, so loading into a fresh framework never holds two models.
	untrained := f.agent == nil
	if untrained {
		f.embed = nil
	}
	embed := code2vec.NewModel(h.Embed)
	adapter := &embedAdapter{fw: &Framework{embed: embed}}
	agent := rl.NewAgent(adapter, h.RL)
	if err := nn.DecodeParams(dec, agent.Params()); err != nil {
		if untrained {
			f.embed = code2vec.NewModel(f.Cfg.Embed)
		}
		return err
	}
	adapter.fw = f
	f.Cfg.Embed, f.embed, f.agent = h.Embed, embed, agent
	f.modelVersion = h.Version
	if f.modelVersion == "" {
		f.modelVersion = fingerprintParams(agent.Params())
	}
	// Context extraction depends on Embed config; re-extract for already
	// loaded units so embeddings match the restored model.
	for _, u := range f.units {
		u.Ctxs = code2vec.ExtractContexts(u.Nest, h.Embed)
	}
	// Cached policy instances may hold the previous weights (the NNS index
	// embeds with them); resolve afresh against the restored model.
	f.invalidatePolicies()
	if extra != nil {
		return extra(dec)
	}
	return nil
}

// ModelVersion returns the fingerprint of the model most recently saved or
// loaded, or "" if the framework has neither saved nor loaded a snapshot or
// its weights have moved since (InitAgent, Train, TrainWithEmbedder,
// Retrained). The serving layer keys its response cache on this
// value so a hot-reloaded checkpoint invalidates stale entries.
func (f *Framework) ModelVersion() string { return f.modelVersion }

// fingerprintParams hashes every parameter's name and weights into a short
// stable hex fingerprint.
func fingerprintParams(params []*nn.Param) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range params {
		io.WriteString(h, p.Name)
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveModelFile and LoadModelFile are path conveniences.
func (f *Framework) SaveModelFile(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	if err := f.SaveModel(fh); err != nil {
		return err
	}
	return fh.Close()
}

// LoadModelFile restores a snapshot from a file.
func (f *Framework) LoadModelFile(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return f.LoadModel(fh)
}
