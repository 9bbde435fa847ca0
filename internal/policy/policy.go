// Package policy is the unified decision-making API of the NeuroVectorizer
// reproduction. The paper is fundamentally a *comparison* of vectorization
// decision methods — a baseline cost model, random search, exhaustive brute
// force, nearest-neighbor search over the learned embedding, and the deep-RL
// agent — and this package puts every one of them behind a single
// context-aware interface:
//
//	type Policy interface {
//	    Name() string
//	    Decide(ctx context.Context, req *Request) (*Decision, error)
//	}
//
// Policies are registered by name (Register / Lookup / List) and constructed
// against a Host — the read-only slice of the framework a policy may consume
// (architecture, trained agent, loaded corpus). core.Framework implements
// Host and resolves policies with Framework.Policy(name); the HTTP service
// and the CLI select them per request via the "policy" field and the -policy
// flag.
//
// A Decision is always a concrete (VF, IF) pair drawn from the target
// architecture's action space. Search-based policies honor ctx: brute force
// checks the deadline between candidate evaluations and returns the best
// pair found so far (Truncated reports the early exit), so a serving layer
// can bound worst-case latency without losing the request.
//
// The paper's other comparator, Polly, is not a policy: its fusion and
// tiling rewrite the program, which no per-loop (VF, IF) decision can
// express. Figures 7 and 8 simulate it directly (package polly).
//
// # Writing a policy
//
// Stateless policies need only the per-request inputs:
//
//	policy.Register("always-scalar", func(policy.Host) (policy.Policy, error) {
//	    return policy.Func("always-scalar", func(ctx context.Context, req *policy.Request) (*policy.Decision, error) {
//	        return &policy.Decision{VF: 1, IF: 1}, nil
//	    }), nil
//	})
//
// Policies that need trained state (weights, an index over the corpus) build
// it in the factory from the Host and fail there when the framework cannot
// supply it — the service maps such failures to HTTP 409.
package policy

import (
	"context"
	"errors"

	"neurovec/internal/ir"
	"neurovec/internal/machine"
)

// ErrNoAgent is reported by agent-backed policies (and by
// core.Framework.Predict) when no agent has been trained or loaded. The
// serving layer maps it to HTTP 409.
var ErrNoAgent = errors.New("no trained agent")

// Request carries everything a policy may consult to decide one loop.
// Fields a host cannot supply are nil; policies must check for what they
// need and fail with a descriptive error rather than guessing.
type Request struct {
	// Name identifies the loop (unit name or loop label) for diagnostics.
	Name string
	// Source is the raw program text; with Name it identifies the decision
	// point, grounding per-request determinism for stochastic policies
	// (loop labels alone restart at L0 for every program).
	Source string
	// Prog is the lowered program containing Loop.
	Prog *ir.Program
	// Loop is the innermost loop under decision.
	Loop *ir.Loop
	// Arch is the target architecture whose VFs()/IFs() bound the decision.
	Arch *machine.Arch
	// Embed lazily computes the learned code vector for Loop. Lazy because
	// most policies never look at it and the forward pass is not free.
	Embed func() []float64
	// Evaluate returns the simulated program cycle count with (vf, ifc)
	// injected at Loop and the baseline decision everywhere else — the
	// objective search policies minimise. Calls must not overlap.
	Evaluate func(vf, ifc int) float64
}

// Decision is a policy's answer for one loop.
type Decision struct {
	// VF and IF are the chosen vectorization and interleaving factors,
	// always drawn from the target architecture's action space.
	VF int
	IF int
	// Truncated reports that the decision came from an incomplete search:
	// the context expired and the policy returned its best pair so far.
	Truncated bool
}

// Policy is one vectorization decision method.
type Policy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Decide picks factors for the request's loop. Implementations should
	// honor ctx cancellation; long-running searches return their best
	// result so far with Decision.Truncated set rather than an error.
	Decide(ctx context.Context, req *Request) (*Decision, error)
}

// DeadlineAware is optionally implemented by policies whose Decide degrades
// gracefully under an expired context, returning a best-so-far Decision
// instead of an error. The inference pipeline runs such policies even when
// the deadline has already passed (the request still gets an answer); other
// policies fail fast with the context error.
type DeadlineAware interface {
	DeadlineAware() bool
}

// IsDeadlineAware reports whether p degrades gracefully under an expired
// context.
func IsDeadlineAware(p Policy) bool {
	d, ok := p.(DeadlineAware)
	return ok && d.DeadlineAware()
}

// LoopPure is optionally implemented by policies whose decision is a pure
// function of the single loop under decision (its content / learned
// embedding) and the trained model — independent of the surrounding
// program, runtime parameters, and request identity. Only such decisions
// are sound to memoize per loop across files, which is what the serving
// layer's per-loop decision cache does.
type LoopPure interface {
	LoopPure() bool
}

// IsLoopPure reports whether p's decisions may be memoized per loop.
func IsLoopPure(p Policy) bool {
	lp, ok := p.(LoopPure)
	return ok && lp.LoopPure()
}

// Prober is optionally implemented by policies that can cheaply report
// whether they could serve a decision right now (the discovery endpoint uses
// it: a registered policy whose backing state is missing — an untrained
// agent, say — lists as unavailable with the probe error as the reason).
type Prober interface {
	Probe() error
}

// Func adapts a plain function to a Policy.
func Func(name string, fn func(ctx context.Context, req *Request) (*Decision, error)) Policy {
	return &funcPolicy{name: name, fn: fn}
}

type funcPolicy struct {
	name string
	fn   func(ctx context.Context, req *Request) (*Decision, error)
}

func (p *funcPolicy) Name() string { return p.name }

func (p *funcPolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	return p.fn(ctx, req)
}
