// Package core is the public API of the NeuroVectorizer reproduction: the
// end-to-end framework of the paper's Figure 3.
//
// A Framework owns the whole pipeline — parser, loop extractor, code
// embedding generator, RL agent, pragma injection, "compilation"
// (vectorization planning) and "execution" (cycle-level simulation, standing
// in for the paper's physical testbed). Typical use:
//
//	cfg := core.DefaultConfig()
//	cfg.Seed = 1
//	fw := core.New(cfg)
//	fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 5000, Seed: 1}))
//	stats := fw.Train(nil)                    // PPO + end-to-end embedding
//	resp, _ := fw.PredictLoops(ctx, src, nil) // inference on new code
//	fmt.Print(resp.Annotated)                 // the source with pragmas injected
//
// Inference is policy-parameterized: every per-loop decision method of the
// paper's comparison (trained agent, baseline cost model, brute force,
// random, NNS over the learned embedding) is served through the pluggable
// interface of package neurovec/internal/policy, selected per call:
//
//	resp, err := fw.PredictLoops(ctx, src, nil, core.WithPolicyName("brute"))
//
// The framework also exposes the reward function and the learned embedding,
// from which the supervised methods (NNS, decision trees) of Section 3.5
// are derived.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"neurovec/internal/code2vec"
	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/machine"
	"neurovec/internal/nn"
	"neurovec/internal/policy"
	"neurovec/internal/rl"
	"neurovec/internal/search"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// Config assembles the framework's components.
type Config struct {
	Arch  *machine.Arch
	Sim   sim.Config
	Embed code2vec.Config
	Lower lower.Options

	// CompileTimeoutFactor and TimeoutPenalty implement Section 3.4: a
	// configuration whose compile time exceeds the factor times the
	// baseline's compile time receives the penalty as its reward.
	CompileTimeoutFactor float64
	TimeoutPenalty       float64

	Seed int64
}

// DefaultConfig returns the paper's settings: AVX-class machine, 340-wide
// code vectors, 10x compile budget with a -9 penalty.
func DefaultConfig() Config {
	sc := sim.DefaultConfig()
	return Config{
		Arch:                 sc.Arch,
		Sim:                  sc,
		Embed:                code2vec.DefaultConfig(),
		Lower:                lower.DefaultOptions(),
		CompileTimeoutFactor: 10,
		TimeoutPenalty:       -9,
		Seed:                 1,
	}
}

// Unit is one loaded loop sample: the program compiled as /v2/compile
// compiles it, one of its innermost loops, that loop's nest in the parsed
// source with the path contexts extracted from it, and cached baseline
// measurements. Units of one program share its IR, its prepared simulation
// and its baseline plans.
type Unit struct {
	Name string

	Prog *ir.Program
	Loop *ir.Loop
	// Nest is the root of the loop's enclosing nest in the parsed source
	// (extractor.LoopInfo.Outermost): the AST the code embedding reads.
	Nest *lang.ForStmt
	Ctxs []code2vec.Context

	prep            *sim.Prepared
	baselinePlans   map[string]*vectorizer.Plan
	baselineCycles  float64
	baselineCompile float64
	gridOnce        sync.Once
	grid            []cell // see Framework.lookup
}

// Framework is the end-to-end system.
//
// Concurrency: the mutating APIs (LoadSet/LoadSource, Train,
// SaveModel/LoadModel) are setup- and training-time operations for a single
// goroutine. Once setup is done, any number of goroutines may call the
// stateless inference APIs (PredictLoops, Compile, Decide, SweepSource) and
// the reward and measurement paths over loaded units (Reward, Cycles,
// CompileBlowup, BruteForceLabel), which read each unit's action grid,
// built once on first use. Training's rollout workers call Reward.
type Framework struct {
	Cfg Config

	units []*Unit
	embed *code2vec.Model
	agent *rl.Agent
	// modelVersion fingerprints the last saved/loaded checkpoint; see
	// ModelVersion.
	modelVersion string

	// policies caches per-name policy instances resolved through the
	// registry. Guarded by policyMu because inference-time callers (the
	// service) resolve policies concurrently; invalidated by the mutating
	// APIs (Train, LoadModel, Load*) whose corpus or weights a policy may
	// have captured.
	policyMu sync.Mutex
	policies map[string]policy.Policy

	// embedPool recycles per-request embedding state (path-context
	// extractor buffers and code2vec forward scratch) across the inference
	// paths, so steady-state embedding heap-allocates nothing beyond what a
	// caller asks to own.
	embedPool sync.Pool
}

// embedScratch is one caller's worth of embedding buffers.
type embedScratch struct {
	ex code2vec.Extractor
	sc code2vec.Scratch
}

func (f *Framework) getEmbedScratch() *embedScratch {
	if s, ok := f.embedPool.Get().(*embedScratch); ok {
		return s
	}
	return &embedScratch{}
}

func (f *Framework) putEmbedScratch(s *embedScratch) { f.embedPool.Put(s) }

// New creates an empty framework from cfg.
func New(cfg Config) *Framework {
	if cfg.Arch == nil {
		cfg = DefaultConfig()
	}
	if cfg.Sim.Arch == nil {
		cfg.Sim.Arch = cfg.Arch
	}
	cfg.Embed.Seed = cfg.Seed
	return &Framework{Cfg: cfg, embed: code2vec.NewModel(cfg.Embed)}
}

// Units returns the loaded samples.
func (f *Framework) Units() []*Unit { return f.units }

// Agent returns the trained agent (nil before Train).
func (f *Framework) Agent() *rl.Agent { return f.agent }

// Arch returns the target architecture (part of the policy.Host contract).
func (f *Framework) Arch() *machine.Arch { return f.Cfg.Arch }

// Seed returns the framework seed (part of the policy.Host contract).
func (f *Framework) Seed() int64 { return f.Cfg.Seed }

// Decider returns the trained agent's greedy decision function over
// embedding vectors, or ErrNoAgent when no agent is trained/loaded (part of
// the policy.Host contract). The returned closure reads f.agent per call so
// it stays current across retraining and LoadModel.
func (f *Framework) Decider() (func(vec []float64) (vf, ifc int), error) {
	if f.agent == nil {
		return nil, ErrNoAgent
	}
	return func(vec []float64) (int, int) { return f.agent.PredictObs(vec) }, nil
}

// DefaultPolicy is the policy PredictLoops and Decide use when the
// caller does not choose one: the paper's trained deep-RL agent.
const DefaultPolicy = "rl"

// Policy resolves a named decision policy from the registry, bound to this
// framework, constructing and caching the instance on first use. Safe for
// concurrent callers; the cache is invalidated when training or loading
// changes the state a policy may have captured.
func (f *Framework) Policy(name string) (policy.Policy, error) {
	f.policyMu.Lock()
	if p, ok := f.policies[name]; ok {
		f.policyMu.Unlock()
		return p, nil
	}
	f.policyMu.Unlock()
	// Construct outside the lock: a factory may be expensive (the NNS index
	// brute-force-labels the corpus), and holding policyMu through it would
	// stall every concurrent request resolving any policy. Racing callers
	// may build duplicates; the first one cached wins.
	p, err := policy.New(name, f)
	if err != nil {
		return nil, err
	}
	f.policyMu.Lock()
	defer f.policyMu.Unlock()
	if existing, ok := f.policies[name]; ok {
		return existing, nil
	}
	if f.policies == nil {
		f.policies = make(map[string]policy.Policy)
	}
	f.policies[name] = p
	return p, nil
}

// invalidatePolicies drops cached policy instances; called by every mutation
// that changes the corpus or the trained weights an instance may hold (the
// NNS index, for example, is built from both).
func (f *Framework) invalidatePolicies() {
	f.policyMu.Lock()
	f.policies = nil
	f.policyMu.Unlock()
}

// LoadSet loads every sample of a dataset with LoadSource. Programs with
// multiple innermost loops contribute one unit per loop.
func (f *Framework) LoadSet(set *dataset.Set) error {
	for _, s := range set.Samples {
		if err := f.LoadSource(s.Name, s.Source, nil); err != nil {
			return err
		}
	}
	return nil
}

// LoadSource compiles one program as /v2/compile does — parse, lax
// semantic analysis, extraction, lowering with the proven facts, and the
// baseline simulation (Compile) — and adds one unit per innermost loop, in
// source order. The unit index range added is [previous len(Units), new
// len(Units)). A program without loops fails with ErrNoLoops before it is
// lowered.
func (f *Framework) LoadSource(name, source string, params map[string]int64) error {
	c, err := f.compileSource(context.Background(), source, params, &inferOpts{file: name})
	if err != nil {
		return fmt.Errorf("core: load %s: %w", name, err)
	}
	baseCompile := sim.CompileTime(c.irp, c.basePlans, f.Cfg.Arch)
	for _, info := range c.infos {
		loop := c.irp.FindLoop(info.Label)
		if loop == nil {
			return fmt.Errorf("core: load %s: loop %s missing from IR", name, info.Label)
		}
		f.units = append(f.units, &Unit{
			Name:            fmt.Sprintf("%s/%s", name, info.Label),
			Prog:            c.irp,
			Loop:            loop,
			Nest:            info.Outermost,
			Ctxs:            code2vec.ExtractContexts(info.Outermost, f.Cfg.Embed),
			prep:            c.prep,
			baselinePlans:   c.basePlans,
			baselineCycles:  c.baseCycles,
			baselineCompile: baseCompile,
		})
	}
	f.invalidatePolicies()
	return nil
}

// ErrNoLoops is reported when a program contains nothing to vectorize.
var ErrNoLoops = errors.New("program has no loops")

// ErrNoAgent is reported by the inference paths when no agent has been
// trained or loaded — surfaced explicitly instead of the historical silent
// (1, 1) fallback that masked misconfigured deployments. It aliases
// policy.ErrNoAgent so errors.Is matches across both packages.
var ErrNoAgent = policy.ErrNoAgent

// BaselineChoice returns the baseline cost model's effective (VF, IF) for a
// unit's loop.
func (f *Framework) BaselineChoice(sample int) (vf, ifc int) {
	u := f.units[sample]
	if p := u.baselinePlans[u.Loop.Label]; p != nil {
		return p.VF, p.IF
	}
	return 1, 1
}

// Explain returns the simulator's cycle breakdown for a unit's loop under
// the given factors, within its enclosing nest — the diagnostic view behind
// the CLI's explain command. Its Total is what the program's simulation
// charges for one execution of the loop.
func (f *Framework) Explain(sample, vf, ifc int) sim.Breakdown {
	u := f.units[sample]
	return u.prep.Explain(vectorizer.Clamp(u.Loop, f.Cfg.Arch, u.baselinePlans[u.Loop.Label].MaxLegalVF, vf, ifc))
}

// ---- Environment (reward) ----

// NumSamples implements rl.Env.
func (f *Framework) NumSamples() int { return len(f.units) }

// lookup returns a unit and its cell for (vf, ifc) in the unit's action
// grid: every action of arch.VFs() x arch.IFs(), built on first use behind
// a sync.Once (rollout workers share units) through one evalRequest.
func (f *Framework) lookup(sample, vf, ifc int) (*Unit, cell) {
	u := f.units[sample]
	u.gridOnce.Do(func() {
		e := f.evaluator(u.Prog, u.Loop, u.prep, u.baselinePlans)
		e.compile = true
		for _, v := range f.Cfg.Arch.VFs() {
			for _, c := range f.Cfg.Arch.IFs() {
				u.grid = append(u.grid, e.eval(v, c))
			}
		}
	})
	return u, u.grid[actionIndex(f.Cfg.Arch, vf, ifc)]
}

// actionIndex is the index in arch.VFs() x arch.IFs() (VF-major) of the
// action vectorizer.New reads (vf, ifc) as: it first floors each factor to
// a power of two (at least one) and clamps it to the arch maximum (a power
// of two), so a request and its action get the same plan.
func actionIndex(arch *machine.Arch, vf, ifc int) int {
	log2 := func(v, hi int) int { return bits.Len(uint(min(max(v, 1), hi))) - 1 }
	return log2(vf, arch.MaxVF)*bits.Len(uint(arch.MaxIF)) + log2(ifc, arch.MaxIF)
}

// Reward implements rl.Env: Equation 2 of the paper,
// (t_baseline - t_RL)/t_baseline, with the compile-timeout penalty.
func (f *Framework) Reward(sample, vf, ifc int) float64 {
	u, c := f.lookup(sample, vf, ifc)
	if c.compile > f.Cfg.CompileTimeoutFactor*u.baselineCompile {
		return f.Cfg.TimeoutPenalty
	}
	if u.baselineCycles <= 0 {
		return 0
	}
	return (u.baselineCycles - c.cycles) / u.baselineCycles
}

// Cycles returns the simulated program cycles for a unit under a specific
// factor pair (used by brute force and the figures).
func (f *Framework) Cycles(sample, vf, ifc int) float64 {
	_, c := f.lookup(sample, vf, ifc)
	return c.cycles
}

// BaselineCycles returns the unit's program cycles under the baseline cost
// model.
func (f *Framework) BaselineCycles(sample int) float64 {
	return f.units[sample].baselineCycles
}

// CompileBlowup returns the ratio of the program's compile time under
// (vf, ifc) at the unit's loop to the baseline's compile time — the
// quantity the Section 3.4 timeout rule thresholds at 10x.
func (f *Framework) CompileBlowup(sample, vf, ifc int) float64 {
	u, c := f.lookup(sample, vf, ifc)
	if u.baselineCompile <= 0 {
		return 1
	}
	return c.compile / u.baselineCompile
}

// ---- Embedder adapter ----

// embedAdapter exposes the code2vec model as an rl.Embedder over units.
type embedAdapter struct {
	fw *Framework
}

// adapterScratch is one caller's code vector and the forward state its
// backward reads.
type adapterScratch struct {
	vec []float64
	sc  code2vec.Scratch
}

func (e *embedAdapter) NewScratch() any {
	return &adapterScratch{vec: make([]float64, e.fw.embed.Dim())}
}

func (e *embedAdapter) Embed(s any, sample int) []float64 {
	as := s.(*adapterScratch)
	return e.fw.embed.ForwardInto(as.vec, e.fw.units[sample].Ctxs, &as.sc)
}

func (e *embedAdapter) Backward(s any, sample int, dvec []float64) {
	e.fw.embed.Backward(&s.(*adapterScratch).sc, e.fw.units[sample].Ctxs, dvec)
}

func (e *embedAdapter) Params() []*nn.Param { return e.fw.embed.Params() }
func (e *embedAdapter) Dim() int            { return e.fw.embed.Dim() }

// Embedding returns the current code vector for a unit — the representation
// handed to NNS and decision trees after RL training (Section 3.5). The
// returned slice is freshly owned by the caller; hot paths that can supply
// a destination should use EmbeddingInto.
func (f *Framework) Embedding(sample int) []float64 {
	vec := make([]float64, f.embed.Dim())
	f.EmbeddingInto(vec, sample)
	return vec
}

// EmbedDim returns the code-vector dimensionality — the length callers must
// size EmbeddingInto destinations to.
func (f *Framework) EmbedDim() int { return f.embed.Dim() }

// EmbeddingInto writes the unit's current code vector into dst (length
// EmbedDim) through pooled scratch, performing zero heap allocations in
// steady state. Bit-identical to Embedding. Safe for concurrent callers.
func (f *Framework) EmbeddingInto(dst []float64, sample int) []float64 {
	s := f.getEmbedScratch()
	defer f.putEmbedScratch(s)
	return f.embed.ForwardInto(dst, f.units[sample].Ctxs, &s.sc)
}

// ---- Training and inference ----

// normalizeRL fills an RL configuration's defaults from the framework: the
// architecture's action space and the framework seed.
func (f *Framework) normalizeRL(cfg *rl.Config) rl.Config {
	c := rl.DefaultConfig(f.Cfg.Arch.VFs(), f.Cfg.Arch.IFs())
	if cfg != nil {
		c = *cfg
		if len(c.VFs) == 0 {
			c.VFs = f.Cfg.Arch.VFs()
		}
		if len(c.IFs) == 0 {
			c.IFs = f.Cfg.Arch.IFs()
		}
	}
	if c.Seed == 0 {
		c.Seed = f.Cfg.Seed
	}
	return c
}

// InitAgent builds a fresh, untrained agent over the framework's embedder
// and installs it as the framework's agent, without running any training.
// External training drivers (package neurovec/internal/trainer) use it to
// own the iteration loop themselves; in-process callers normally use Train.
// Passing nil uses the paper's default hyperparameters.
func (f *Framework) InitAgent(cfg *rl.Config) *rl.Agent {
	f.agent = rl.NewAgent(&embedAdapter{fw: f}, f.normalizeRL(cfg))
	f.Retrained()
	return f.agent
}

// Retrained records that the weights no longer match any saved or loaded
// checkpoint: the model version is cleared, which bypasses the per-loop
// caches, and cached policy instances (the NNS index, say, built from the
// previous weights) are dropped. The framework's own training calls it;
// external training drivers that step the agent's weights directly
// (package neurovec/internal/trainer) must call it after every update.
func (f *Framework) Retrained() {
	f.modelVersion = ""
	f.invalidatePolicies()
}

// Train runs PPO over the loaded units on a fresh agent. Passing nil uses
// the paper's defaults. Returns the learning curves. It is the trainer's
// loop (rl.Agent.TrainIterations: parallel rollout on (seed, iteration)
// streams), so it yields the weights a package trainer run of the same
// corpus, seed and config does, at any GOMAXPROCS.
func (f *Framework) Train(cfg *rl.Config) *rl.Stats {
	return f.InitAgent(cfg).Train(f)
}

// TrainWithEmbedder trains the agent on a caller-supplied observation source
// instead of the code2vec model — used by the hand-crafted-features ablation
// (package features). The embedder's sample IDs must match the framework's
// unit indices, and its Embed must be safe for concurrent callers (rollout
// runs on GOMAXPROCS workers).
func (f *Framework) TrainWithEmbedder(emb rl.Embedder, cfg *rl.Config) *rl.Stats {
	f.agent = rl.NewAgent(emb, f.normalizeRL(cfg))
	f.Retrained()
	return f.agent.Train(f)
}

// CodeEmbedder exposes the framework's code2vec model as an rl.Embedder,
// for agents trained outside the framework, such as the two single-factor
// agents of the joint-agent ablation (experiments.AblationJointAgent).
func (f *Framework) CodeEmbedder() rl.Embedder { return &embedAdapter{fw: f} }

// UnitLoops returns the primary innermost loop of every unit, in order —
// the input the feature-ablation embedder consumes.
func (f *Framework) UnitLoops() []*ir.Loop {
	out := make([]*ir.Loop, len(f.units))
	for i, u := range f.units {
		out[i] = u.Loop
	}
	return out
}

// Predict returns the agent's greedy (VF, IF) for a loaded unit, or
// ErrNoAgent when no agent has been trained or loaded. (It used to return a
// silent (1, 1) in that case, which made a misconfigured deployment
// indistinguishable from a policy that genuinely picks scalar code.)
func (f *Framework) Predict(sample int) (vf, ifc int, err error) {
	if f.agent == nil {
		return 0, 0, ErrNoAgent
	}
	vf, ifc = f.agent.Predict(sample)
	return vf, ifc, nil
}

// BruteForceLabel exhaustively searches the action space for a unit and
// returns the best pair (the supervised-learning label of Section 3.5).
func (f *Framework) BruteForceLabel(sample int) (vf, ifc int) {
	vf, ifc, _ = search.BruteForce(f.Cfg.Arch.VFs(), f.Cfg.Arch.IFs(), func(v, c int) float64 {
		return f.Cycles(sample, v, c)
	})
	return vf, ifc
}
