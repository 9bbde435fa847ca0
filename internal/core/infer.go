package core

import (
	"context"
	"errors"
	"fmt"

	"neurovec/internal/api"
	"neurovec/internal/costmodel"
	"neurovec/internal/diag"
	"neurovec/internal/extractor"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
	"neurovec/internal/lower"
	"neurovec/internal/nn"
	"neurovec/internal/obs"
	"neurovec/internal/policy"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// This file is the framework's stateless inference path: everything here
// builds per-request state (parse, lower, extract, simulate) and touches the
// framework only through read-only views — the configuration and the trained
// weights. That makes PredictLoops, Compile, Decide and SweepSource safe
// for any number of concurrent callers, which is what the serving layer
// (internal/service) relies on. The mutating APIs (LoadSource, Train, LoadModel, ...) remain
// single-threaded setup operations.
//
// PredictLoops is the one inference entrypoint and speaks the versioned v2
// wire schema (package neurovec/internal/api) directly: one api.Decision per
// innermost loop with a stable LoopID, provenance, and optional per-loop
// pins. It is two steps, then rendering:
//
//   - Compile: parse, sema, extract, lower, and the baseline simulation,
//     once per source (*Compiled);
//   - Decide: one policy over a compile — decisions, pins, the loop cache,
//     and the per-loop and combined simulations;
//   - extractor.Annotate renders the decisions as pragmas.
//
// Its response carries both the paper's Figure 4 artifact (Annotated, the
// source with pragmas injected) and the per-loop decisions (Loops).
// SweepSource shares the compile step. The eval harness compiles each file
// once and runs Decide for each of its roles, which never renders.
//
// Inference is policy-parameterized: the decision for each loop comes from a
// policy.Policy — the trained agent by default, or any registered method
// (costmodel, brute, random, nns) selected with WithPolicy /
// WithPolicyName. The context is threaded into every Decide call so
// deadline-aware policies (brute force) can return their best answer so far
// instead of blowing the caller's latency budget.

// InferOption configures one PredictLoops / Compile / Decide / SweepSource
// call.
type InferOption func(*inferOpts)

type inferOpts struct {
	pol     policy.Policy
	polName string
	pins    []api.Pin
	cache   LoopCache
	strict  bool
	file    string
}

// WithPolicy uses a concrete policy instance for this call — the hook for
// policies that are not in the registry (e.g. the random and decision-tree
// policy.Funcs local to experiments.Fig7).
func WithPolicy(p policy.Policy) InferOption {
	return func(o *inferOpts) { o.pol = p }
}

// WithPolicyName resolves the named policy from the registry, bound to this
// framework, at call time. Unknown names fail the call with
// policy.ErrUnknown.
func WithPolicyName(name string) InferOption {
	return func(o *inferOpts) { o.polName = name }
}

// WithPins forces individual loops to explicit factors: pinned loops bypass
// the decision policy entirely (their Decision carries Origin "pin"), while
// the rest of the program is decided as usual. A pin addressing a loop the
// program does not contain, or factors outside the target architecture's
// action space, fails the call with an error wrapping ErrBadPin.
func WithPins(pins []api.Pin) InferOption {
	return func(o *inferOpts) { o.pins = append(o.pins, pins...) }
}

// WithLoopCache serves per-loop state from c across calls: code vectors for
// every policy, and (VF, IF) decisions for policies that are pure functions
// of the loop (policy.IsLoopPure). Keys embed the checkpoint fingerprint and
// the stable LoopID, so whitespace-edited re-requests still hit and a
// hot-reload can never serve stale state; when the framework has no
// fingerprinted checkpoint the cache is bypassed entirely.
func WithLoopCache(c LoopCache) InferOption {
	return func(o *inferOpts) { o.cache = c }
}

// LoopCache is the per-loop memo PredictLoops consults; LoopLRU is the
// bounded implementation that serving and the eval harness share.
// Implementations must be safe for concurrent use; both sides treat entries
// as immutable after Put.
type LoopCache interface {
	// GetDecision / PutDecision memoize a loop-pure policy's (VF, IF).
	GetDecision(key string) (vf, ifc int, ok bool)
	PutDecision(key string, vf, ifc int)
	// GetEmbed / PutEmbed memoize the learned code vector for a loop.
	GetEmbed(key string) ([]float64, bool)
	PutEmbed(key string, vec []float64)
}

// ErrBadPin is wrapped by pin-validation failures: a pin addressing a loop
// the program does not contain, or factors outside the architecture's
// action space. The serving layer maps it to HTTP 400.
var ErrBadPin = errors.New("bad pin")

// ErrSemantic is the sentinel every strict-mode semantic rejection wraps;
// callers match it with errors.Is and recover the diagnostics by unwrapping
// to *SemanticError with errors.As. The serving layer maps it to HTTP 422
// with the diagnostics in the response body.
var ErrSemantic = errors.New("semantic errors")

// SemanticError rejects a strict-mode compile whose source carries
// error-severity semantic diagnostics. Diags holds every finding (warnings
// included) in deterministic order.
type SemanticError struct {
	Diags diag.List
}

// Error summarises the rejection with the first error's rendered form.
func (e *SemanticError) Error() string {
	errs := e.Diags.Errors()
	if len(errs) == 0 {
		return "core: semantic errors"
	}
	msg := fmt.Sprintf("core: %d semantic error(s): %s", len(errs), errs[0].String())
	return msg
}

// Unwrap ties the typed error to the ErrSemantic sentinel.
func (e *SemanticError) Unwrap() error { return ErrSemantic }

// WithStrictSema rejects sources carrying error-severity semantic
// diagnostics with a *SemanticError instead of compiling them (lax mode, the
// default, compiles anyway and annotates the response). Warnings never
// reject in either mode.
func WithStrictSema() InferOption {
	return func(o *inferOpts) { o.strict = true }
}

// WithSourceName attributes diagnostics to the given file name. Purely
// cosmetic: positions are unaffected.
func WithSourceName(file string) InferOption {
	return func(o *inferOpts) { o.file = file }
}

// resolvePolicy picks the policy for a call: an explicit instance wins, then
// a registry name, then fallback (DefaultPolicy for prediction, "" meaning
// none for sweeps).
func (f *Framework) resolvePolicy(o *inferOpts, fallback string) (policy.Policy, error) {
	if o.pol != nil {
		return o.pol, nil
	}
	name := o.polName
	if name == "" {
		name = fallback
	}
	if name == "" {
		return nil, nil
	}
	return f.Policy(name)
}

// Compiled is one source program compiled for inference — the per-request
// state every inference entrypoint builds once: the parsed program, its
// extraction targets with stable loop identities, the lowered IR, the
// simulator's prepared form of it, and the baseline plan/cycle anchors.
// Build it with Compile; it is read-only afterwards, so any number of
// Decide calls, for any policies, may share it.
type Compiled struct {
	source     string
	prog       *lang.Program
	infos      []extractor.LoopInfo
	ids        map[string]api.LoopID
	irp        *ir.Program
	prep       *sim.Prepared
	basePlans  map[string]*vectorizer.Plan
	baseCycles float64
	diags      diag.List
}

// Program returns the lowered IR of the compiled source, for comparators
// that transform or simulate the whole program (the Polly analogue of
// Figs. 7 and 8). Callers must not modify it.
func (c *Compiled) Program() *ir.Program { return c.irp }

// Compile runs the front half of PredictLoops once — parse, semantic
// analysis, loop extraction, lowering, and the baseline simulation — so
// that several policies can be decided over one compile with Decide. Of the
// options only WithStrictSema and WithSourceName apply. Safe for concurrent
// callers.
func (f *Framework) Compile(ctx context.Context, source string, params map[string]int64, opts ...InferOption) (*Compiled, error) {
	var o inferOpts
	for _, opt := range opts {
		opt(&o)
	}
	return f.compileSource(ctx, source, params, &o)
}

// compileSource parses, extracts, and lowers one source program and
// simulates its baseline — the shared front half of PredictLoops and
// SweepSource. It builds only per-request state. Every stage runs under an
// obs span, so an armed context (service requests, traced CLI calls) gets
// per-stage latency for free and an unarmed one pays nothing.
func (f *Framework) compileSource(ctx context.Context, source string, params map[string]int64, o *inferOpts) (*Compiled, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	prog, err := lang.ParseFile(o.file, source)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Semantic analysis runs before any lowering: strict mode rejects
	// programs with error diagnostics outright, lax mode annotates the
	// response and compiles anyway. Either way the proven per-loop facts
	// feed the lowering below, which is what lets the dependence analysis
	// accept provably safe loops it would otherwise reject.
	_, sp = obs.StartSpan(ctx, "sema")
	sinfo := sema.Check(o.file, prog)
	sp.End()
	if o.strict && sinfo.Diags.HasErrors() {
		return nil, &SemanticError{Diags: sinfo.Diags}
	}
	_, sp = obs.StartSpan(ctx, "extract")
	infos := extractor.Loops(prog)
	ids := api.LoopIDs(prog)
	sp.End()
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: no loops in source: %w", ErrNoLoops)
	}
	opts := f.Cfg.Lower
	if params != nil {
		opts.ParamValues = params
	}
	opts.Facts = sinfo.Facts
	_, sp = obs.StartSpan(ctx, "lower")
	irp, err := lower.Program(prog, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "deps")
	basePlans := costmodel.Plans(irp, f.Cfg.Arch)
	sp.End()
	// The simulator's plan-invariant analysis of every loop runs here, once:
	// the baseline, every candidate evaluation and the combined simulation
	// read it.
	_, sp = obs.StartSpan(ctx, "sim_baseline")
	prep := sim.Prepare(irp, f.Cfg.Sim)
	baseCycles := prep.Cycles(basePlans)
	sp.End()
	return &Compiled{
		source:     source,
		prog:       prog,
		infos:      infos,
		ids:        ids,
		irp:        irp,
		prep:       prep,
		basePlans:  basePlans,
		baseCycles: baseCycles,
		diags:      sinfo.Diags,
	}, nil
}

// resolvePins maps each pin onto the parser label of the loop it addresses.
// Every pin must address exactly one existing loop with legal factors.
func (f *Framework) resolvePins(c *Compiled, pins []api.Pin) (map[string]api.Pin, error) {
	if len(pins) == 0 {
		return nil, nil
	}
	byID := make(map[api.LoopID]string, len(c.ids))
	for label, id := range c.ids {
		byID[id] = label
	}
	labels := make(map[string]bool, len(c.infos))
	for _, info := range c.infos {
		labels[info.Label] = true
	}
	inSpace := func(v int, space []int) bool {
		for _, s := range space {
			if s == v {
				return true
			}
		}
		return false
	}
	out := make(map[string]api.Pin, len(pins))
	for _, p := range pins {
		label := p.Label
		if p.Loop != "" {
			l, ok := byID[p.Loop]
			if !ok {
				return nil, fmt.Errorf("core: %w: no loop with id %s", ErrBadPin, p.Loop)
			}
			label = l
		} else if !labels[label] {
			return nil, fmt.Errorf("core: %w: no loop with label %s", ErrBadPin, label)
		}
		if !inSpace(p.VF, f.Cfg.Arch.VFs()) || !inSpace(p.IF, f.Cfg.Arch.IFs()) {
			return nil, fmt.Errorf("core: %w: pin %s: (VF=%d, IF=%d) outside the %s action space",
				ErrBadPin, p.Addr(), p.VF, p.IF, f.Cfg.Arch.Name)
		}
		if _, dup := out[label]; dup {
			return nil, fmt.Errorf("core: %w: loop %s pinned twice", ErrBadPin, label)
		}
		out[label] = p
	}
	return out, nil
}

// PredictLoops is the loop-granular inference entrypoint: it compiles the
// source, decides every innermost loop — honoring per-loop pins, serving
// unpinned loops from the selected policy (default: the trained agent) —
// and returns the versioned per-loop response the v2 API serves verbatim.
// Safe for concurrent callers; no framework state is mutated.
func (f *Framework) PredictLoops(ctx context.Context, source string, params map[string]int64, opts ...InferOption) (*api.CompileResponse, error) {
	var o inferOpts
	for _, opt := range opts {
		opt(&o)
	}
	pol, err := f.resolvePolicy(&o, DefaultPolicy)
	if err != nil {
		return nil, err
	}
	// A deadline-aware policy still answers (best-so-far) under an expired
	// context; everything else fails fast before any simulation work.
	if err := ctx.Err(); err != nil && !policy.IsDeadlineAware(pol) {
		return nil, err
	}
	ctx, root := obs.StartSpan(ctx, "compile")
	defer root.End()
	c, err := f.compileSource(ctx, source, params, &o)
	if err != nil {
		return nil, err
	}
	resp, err := f.decide(ctx, c, pol, &o)
	if err != nil {
		return nil, err
	}
	decisions := make([]extractor.Decision, len(resp.Loops))
	for i, d := range resp.Loops {
		decisions[i] = extractor.Decision{Label: d.Label, VF: d.VF, IF: d.IF}
	}
	resp.Annotated = extractor.Annotate(c.prog, decisions)
	return resp, nil
}

// Decide is PredictLoops over an existing compile: it decides every
// innermost loop of c with the selected policy (default: the trained
// agent), honoring pins and the loop cache, and simulates each decision and
// their combination. It renders nothing — the response's Annotated field is
// empty — and ignores the compile-time options. Safe for concurrent
// callers, including on one shared Compiled.
func (f *Framework) Decide(ctx context.Context, c *Compiled, opts ...InferOption) (*api.CompileResponse, error) {
	var o inferOpts
	for _, opt := range opts {
		opt(&o)
	}
	pol, err := f.resolvePolicy(&o, DefaultPolicy)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil && !policy.IsDeadlineAware(pol) {
		return nil, err
	}
	return f.decide(ctx, c, pol, &o)
}

// decide is the per-policy back half of PredictLoops: decisions, pins, the
// loop cache, and the per-loop and combined simulations.
func (f *Framework) decide(ctx context.Context, c *Compiled, pol policy.Policy, o *inferOpts) (*api.CompileResponse, error) {
	pinned, err := f.resolvePins(c, o.pins)
	if err != nil {
		return nil, err
	}
	// Per-loop caches are only sound against a fingerprinted checkpoint:
	// an in-process framework can retrain without changing ModelVersion.
	version := f.ModelVersion()
	cache := o.cache
	if version == "" {
		cache = nil
	}
	// Decisions are cached only for policies that are pure functions of the
	// loop; code vectors are cached for every policy.
	decisionCache := cache
	if !policy.IsLoopPure(pol) {
		decisionCache = nil
	}

	resp := &api.CompileResponse{
		Version:        api.Version,
		ModelVersion:   version,
		Policy:         pol.Name(),
		BaselineCycles: c.baseCycles,
		Diagnostics:    c.diags,
	}
	combined := clonePlans(c.basePlans)
	// plans is the scratch map every loop's evaluator swaps its decision
	// into in turn, so the walk copies the plan map once, not once per loop.
	plans := clonePlans(c.basePlans)
	for _, info := range c.infos {
		loop := c.irp.FindLoop(info.Label)
		if loop == nil {
			return nil, fmt.Errorf("core: loop %s missing from IR", info.Label)
		}
		id := c.ids[info.Label]
		r := f.loopRequest(c, info, loop)
		var vf, ifc int
		prov := api.Provenance{Origin: api.OriginPolicy, Policy: pol.Name(), ModelVersion: version}
		switch pin, isPinned := pinned[info.Label]; {
		case isPinned:
			vf, ifc = pin.VF, pin.IF
			prov = api.Provenance{Origin: api.OriginPin}
		default:
			var dkey string
			if decisionCache != nil {
				dkey = decisionKey(version, pol.Name(), id)
				if cv, ci, ok := decisionCache.GetDecision(dkey); ok {
					vf, ifc = cv, ci
					break
				}
			}
			// Span wrap first, cache wrap outside it: a cache hit returns
			// before the inner closure runs, so only real code2vec forward
			// passes are timed as "embed".
			traceEmbed(ctx, &r.Request, info.Label)
			if cache != nil {
				wrapEmbed(&r.Request, cache, embedKey(version, id))
			}
			dctx, dsp := obs.StartSpan(ctx, "decide")
			dsp.Annotate(info.Label)
			d, err := safeDecide(dctx, pol, &r.Request)
			dsp.End()
			if err != nil {
				return nil, fmt.Errorf("core: policy %s on loop %s: %w", pol.Name(), info.Label, err)
			}
			vf, ifc = d.VF, d.IF
			prov.Truncated = d.Truncated
			resp.Truncated = resp.Truncated || d.Truncated
			if decisionCache != nil && !d.Truncated {
				decisionCache.PutDecision(dkey, vf, ifc)
			}
		}
		_, ssp := obs.StartSpan(ctx, "sim")
		ssp.Annotate(info.Label)
		plan, got := r.at(plans, vf, ifc)
		ssp.End()
		resp.Loops = append(resp.Loops, api.Decision{
			Loop:             id,
			Label:            info.Label,
			Func:             info.Func,
			VF:               vf,
			IF:               ifc,
			Cycles:           got.cycles,
			PredictedSpeedup: safeRatio(c.baseCycles, got.cycles),
			Provenance:       prov,
		})
		combined[info.Label] = plan
	}
	_, ssp := obs.StartSpan(ctx, "sim")
	ssp.Annotate("combined")
	resp.PredictedCycles = c.prep.Cycles(combined)
	ssp.End()
	resp.Speedup = safeRatio(c.baseCycles, resp.PredictedCycles)
	return resp, nil
}

// ErrModelShape is reported when the loaded model's layer dimensions do not
// match the observation a policy fed it — a malformed checkpoint or an
// embed-config skew. The nn package signals the mismatch with a typed panic
// (*nn.ShapeError) deep inside a forward pass; safeDecide converts it into
// this error at the core boundary so one bad request fails instead of
// crashing a serving process.
var ErrModelShape = errors.New("model/input shape mismatch")

// safeDecide runs a policy decision, translating *nn.ShapeError panics
// (raised by the networks on length mismatches, including inside the
// request's lazy Embed closure) into an ErrModelShape-wrapping error. All
// other panics propagate.
func safeDecide(ctx context.Context, pol policy.Policy, req *policy.Request) (*policy.Decision, error) {
	var d *policy.Decision
	var err error
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			re, ok := r.(error)
			var se *nn.ShapeError
			if !ok || !errors.As(re, &se) {
				panic(r)
			}
			err = fmt.Errorf("core: %w: %v", ErrModelShape, se)
		}()
		d, err = pol.Decide(ctx, req)
	}()
	return d, err
}

// traceEmbed wraps the request's lazy embedding closure in an "embed" span.
// The closure runs inside the policy's Decide, so the span is started at call
// time against the captured (armed) context, not the policy's.
func traceEmbed(ctx context.Context, req *policy.Request, label string) {
	inner := req.Embed
	if inner == nil || !obs.Enabled(ctx) {
		return
	}
	req.Embed = func() []float64 {
		_, sp := obs.StartSpan(ctx, "embed")
		sp.Annotate(label)
		vec := inner()
		sp.End()
		return vec
	}
}

// decisionKey / embedKey derive the LoopCache keys. Both embed the
// checkpoint fingerprint; the decision key also names the policy so two
// methods never trade answers.
func decisionKey(version, policyName string, id api.LoopID) string {
	return "d\x00" + version + "\x00" + policyName + "\x00" + string(id)
}

func embedKey(version string, id api.LoopID) string {
	return "e\x00" + version + "\x00" + string(id)
}

// wrapEmbed memoizes the request's lazy embedding closure in the cache: the
// code2vec forward pass dominates learned-policy latency, and the vector is
// a pure function of (checkpoint, loop content) — exactly the cache key.
func wrapEmbed(req *policy.Request, cache LoopCache, key string) {
	inner := req.Embed
	if inner == nil {
		return
	}
	req.Embed = func() []float64 {
		if vec, ok := cache.GetEmbed(key); ok {
			return vec
		}
		vec := inner()
		cache.PutEmbed(key, vec)
		return vec
	}
}

// loopRequest assembles the policy.Request for one loop of a compiled
// program. Embedding and candidate evaluation are closures so policies that
// never use them cost nothing.
func (f *Framework) loopRequest(c *Compiled, info extractor.LoopInfo, loop *ir.Loop) *evalRequest {
	r := f.evaluator(c.irp, loop, c.prep, c.basePlans)
	r.Request = policy.Request{
		Name:   info.Label,
		Source: c.source,
		Prog:   c.irp,
		Loop:   loop,
		Arch:   f.Cfg.Arch,
		Embed: func() []float64 {
			// Extraction and the forward pass run in pooled scratch; only
			// the returned vector is allocated, because policies (and the
			// LoopCache wrapper) retain it past this call.
			s := f.getEmbedScratch()
			defer f.putEmbedScratch(s)
			vec := make([]float64, f.embed.Dim())
			f.embed.ForwardInto(vec, s.ex.Extract(info.Outermost, f.Cfg.Embed), &s.sc)
			return vec
		},
		Evaluate: func(vf, ifc int) float64 { return r.eval(vf, ifc).cycles },
	}
	return r
}

// evalRequest is one loop's policy.Request and the one evaluator of its
// decisions — the program's cycles with the loop at (vf, ifc) and every
// other loop at base — for Evaluate, decide, SweepSource and the unit grids
// (which set only Prog and Loop). It reads the compile's plan-invariant
// analyses: the prepared program and the loop's dependence-limited VF,
// which the baseline plan carries. Not safe for concurrent use.
type evalRequest struct {
	policy.Request
	f          *Framework
	prep       *sim.Prepared
	base       map[string]*vectorizer.Plan
	maxLegalVF int
	compile    bool // also charge sim.CompileTime (the unit grids only)
	// plans (a copy of base) and memo are made by the first eval, so a
	// policy that never searches allocates neither.
	plans map[string]*vectorizer.Plan
	memo  map[[2]int]cell
}

// cell is the program's cycles and compile time under one action.
type cell struct{ cycles, compile float64 }

// evaluator returns the evaluator of loop's decisions in prog, whose
// prepared form is prep and whose baseline plans are base.
func (f *Framework) evaluator(prog *ir.Program, loop *ir.Loop, prep *sim.Prepared, base map[string]*vectorizer.Plan) *evalRequest {
	return &evalRequest{
		Request:    policy.Request{Prog: prog, Loop: loop},
		f:          f,
		prep:       prep,
		base:       base,
		maxLegalVF: base[loop.Label].MaxLegalVF,
	}
}

// at returns the loop's plan for (vf, ifc) — the plan vectorizer.New
// builds — and the program's cell under it, memoized (once the memo is
// made) by the effective pair the plan clamps to. The plan is swapped into
// plans, a copy of base, and back out, so one program's evaluators may
// share plans in turn.
func (r *evalRequest) at(plans map[string]*vectorizer.Plan, vf, ifc int) (*vectorizer.Plan, cell) {
	plan := vectorizer.Clamp(r.Loop, r.f.Cfg.Arch, r.maxLegalVF, vf, ifc)
	key := [2]int{plan.VF, plan.IF}
	if c, ok := r.memo[key]; ok {
		return plan, c
	}
	plans[r.Loop.Label] = plan
	c := cell{cycles: r.prep.Cycles(plans)}
	if r.compile {
		c.compile = sim.CompileTime(r.Prog, plans, r.f.Cfg.Arch)
	}
	plans[r.Loop.Label] = r.base[r.Loop.Label]
	if r.memo != nil {
		r.memo[key] = c
	}
	return plan, c
}

// eval is at over the request's own plans, memoized.
func (r *evalRequest) eval(vf, ifc int) cell {
	if r.memo == nil {
		r.plans, r.memo = clonePlans(r.base), make(map[[2]int]cell)
	}
	_, c := r.at(r.plans, vf, ifc)
	return c
}

// Sweep is the VF x IF performance grid for one loop of a program.
type Sweep struct {
	// Loop is the label of the swept (first innermost) loop; ID is its
	// stable content+position identity.
	Loop string
	ID   api.LoopID
	VFs  []int
	IFs  []int
	// BaselineCycles is the program cycle count under the baseline cost
	// model everywhere.
	BaselineCycles float64
	// Speedup[i][j] is BaselineCycles over the cycles with (VFs[i], IFs[j])
	// injected at Loop and the baseline decision everywhere else.
	Speedup [][]float64
	// Policy, ChosenVF, ChosenIF report the decision of the policy selected
	// with WithPolicy/WithPolicyName for the swept loop — the grid cell the
	// method would pick. Policy is empty when no policy was requested.
	Policy    string
	ChosenVF  int
	ChosenIF  int
	Truncated bool
}

// SweepSource measures the full factor grid for the first innermost loop of
// the source, without loading it as a unit. It shares PredictLoops's compile
// pipeline, builds only per-request state, and is safe for concurrent
// callers; it does not need a trained agent. The context cancels the grid
// walk (a partial grid is discarded, unlike a policy search's best-so-far
// answer). When a policy is selected via options, its decision for the
// swept loop is reported alongside the grid.
func (f *Framework) SweepSource(ctx context.Context, source string, params map[string]int64, opts ...InferOption) (*Sweep, error) {
	var o inferOpts
	for _, opt := range opts {
		opt(&o)
	}
	pol, err := f.resolvePolicy(&o, "")
	if err != nil {
		return nil, err
	}
	ctx, root := obs.StartSpan(ctx, "sweep")
	defer root.End()
	c, err := f.compileSource(ctx, source, params, &o)
	if err != nil {
		return nil, err
	}
	info := c.infos[0]
	loop := c.irp.FindLoop(info.Label)
	if loop == nil {
		return nil, fmt.Errorf("core: loop %s missing from IR", info.Label)
	}

	sw := &Sweep{
		Loop:           info.Label,
		ID:             c.ids[info.Label],
		VFs:            f.Cfg.Arch.VFs(),
		IFs:            f.Cfg.Arch.IFs(),
		BaselineCycles: c.baseCycles,
	}
	// The grid walks the request a search policy would get, so the policy's
	// evaluations of the same objective are answered from the request's
	// memo instead of re-simulated (brute becomes a free argmin).
	req := f.loopRequest(c, info, loop)
	for _, vf := range sw.VFs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(sw.IFs))
		for _, ifc := range sw.IFs {
			row = append(row, safeRatio(c.baseCycles, req.Evaluate(vf, ifc)))
		}
		sw.Speedup = append(sw.Speedup, row)
	}
	if pol != nil {
		d, err := pol.Decide(ctx, &req.Request)
		if err != nil {
			return nil, fmt.Errorf("core: policy %s on loop %s: %w", pol.Name(), info.Label, err)
		}
		sw.Policy, sw.ChosenVF, sw.ChosenIF, sw.Truncated = pol.Name(), d.VF, d.IF, d.Truncated
	}
	return sw, nil
}

func clonePlans(plans map[string]*vectorizer.Plan) map[string]*vectorizer.Plan {
	out := make(map[string]*vectorizer.Plan, len(plans))
	for k, v := range plans {
		out[k] = v
	}
	return out
}

func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}
