package policy

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"neurovec/internal/costmodel"
	"neurovec/internal/machine"
	"neurovec/internal/search"
)

// The per-loop decision methods of the paper's comparison, registered under
// the names the service and CLI expose.
func init() {
	Register("rl", newRL)
	Register("costmodel", newCostModel)
	Register("brute", newBrute)
	Register("random", newRandom)
	Register("nns", newNNS)
}

// reqArch resolves the decision space: the request's architecture if set,
// else the host's.
func reqArch(req *Request, h Host) (*machine.Arch, error) {
	if req.Arch != nil {
		return req.Arch, nil
	}
	if h != nil && h.Arch() != nil {
		return h.Arch(), nil
	}
	return nil, errors.New("request has no target architecture")
}

// ---- rl: the trained deep-RL agent ----

type rlPolicy struct{ h Host }

func newRL(h Host) (Policy, error) {
	if h == nil {
		return nil, errors.New("rl requires a host framework")
	}
	return &rlPolicy{h: h}, nil
}

func (p *rlPolicy) Name() string { return "rl" }

// LoopPure implements policy.LoopPure: the agent's greedy decision is a
// pure function of the loop's embedding and the trained weights, so it is
// sound to memoize per (checkpoint, loop) across files.
func (p *rlPolicy) LoopPure() bool { return true }

// Decide resolves the agent per call (not at construction) so a framework
// that trains or hot-reloads after policy resolution serves the current
// weights, and an untrained one fails with ErrNoAgent instead of (1, 1).
func (p *rlPolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	decide, err := p.h.Decider()
	if err != nil {
		return nil, err
	}
	if req.Embed == nil {
		return nil, errors.New("rl: request carries no embedding")
	}
	vf, ifc := decide(req.Embed())
	return &Decision{VF: vf, IF: ifc}, nil
}

// ---- costmodel: the baseline LLVM-style linear cost model ----

type costModelPolicy struct{ h Host }

func newCostModel(h Host) (Policy, error) { return &costModelPolicy{h: h}, nil }

func (p *costModelPolicy) Name() string { return "costmodel" }

func (p *costModelPolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	arch, err := reqArch(req, p.h)
	if err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	if req.Loop == nil {
		return nil, errors.New("costmodel: request carries no loop")
	}
	c := costmodel.Choose(req.Loop, arch)
	return &Decision{VF: c.VF, IF: c.IF}, nil
}

// ---- brute: exhaustive search, deadline-aware ----

type brutePolicy struct{ h Host }

func newBrute(h Host) (Policy, error) { return &brutePolicy{h: h}, nil }

func (p *brutePolicy) Name() string { return "brute" }

// DeadlineAware marks that an expired context degrades the search instead of
// failing it.
func (p *brutePolicy) DeadlineAware() bool { return true }

// Decide minimises Evaluate over the full VF x IF grid, checking ctx
// between candidate evaluations. On cancellation it returns the best pair
// found so far with Truncated set — an expired deadline degrades the answer,
// it does not lose the request.
func (p *brutePolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	arch, err := reqArch(req, p.h)
	if err != nil {
		return nil, fmt.Errorf("brute: %w", err)
	}
	if req.Evaluate == nil {
		return nil, errors.New("brute: request cannot evaluate candidates")
	}
	vf, ifc, _, complete := search.BruteForceContext(ctx, arch.VFs(), arch.IFs(), search.Evaluator(req.Evaluate))
	return &Decision{VF: vf, IF: ifc, Truncated: !complete}, nil
}

// ---- random: the paper's random-search comparator ----

type randomPolicy struct{ h Host }

func newRandom(h Host) (Policy, error) { return &randomPolicy{h: h}, nil }

func (p *randomPolicy) Name() string { return "random" }

func (p *randomPolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	arch, err := reqArch(req, p.h)
	if err != nil {
		return nil, fmt.Errorf("random: %w", err)
	}
	// Deterministic per (host seed, program, loop): repeated requests — and
	// therefore cached responses — agree on the "random" answer, but
	// distinct programs draw distinct actions. The source text must be in
	// the seed: loop labels restart at L0 per parse, so hashing the label
	// alone would hand every program's first loop the same "random" pick.
	var seed int64
	if p.h != nil {
		seed = p.h.Seed()
	}
	hash := fnv.New64a()
	fmt.Fprint(hash, req.Source, "\x00", req.Name)
	rng := rand.New(rand.NewSource(seed ^ int64(hash.Sum64())))
	vf, ifc := search.Random(arch.VFs(), arch.IFs(), rng)
	return &Decision{VF: vf, IF: ifc}, nil
}

// ---- nns: nearest-neighbor search over the learned embedding ----

type nnsPolicy struct {
	idx *search.NNS
}

// nnsLabelBudget caps brute-force labelling at index-build time; labelling
// is 35 simulations per unit, so an uncapped 5000-unit corpus would stall
// the first request for minutes.
const nnsLabelBudget = 256

func newNNS(h Host) (Policy, error) {
	if h == nil {
		return nil, errors.New("nns requires a host framework")
	}
	n := h.NumSamples()
	if n == 0 {
		return nil, errors.New("nns: no loaded units to index (load a corpus first; checkpoint-only frameworks cannot serve nns)")
	}
	step := n / nnsLabelBudget
	if step < 1 {
		step = 1
	}
	idx := &search.NNS{}
	for i := 0; i < n; i += step {
		vf, ifc := h.BruteForceLabel(i)
		idx.Add(h.Embedding(i), vf, ifc)
	}
	return &nnsPolicy{idx: idx}, nil
}

func (p *nnsPolicy) Name() string { return "nns" }

func (p *nnsPolicy) Decide(ctx context.Context, req *Request) (*Decision, error) {
	if req.Embed == nil {
		return nil, errors.New("nns: request carries no embedding")
	}
	vf, ifc := p.idx.Predict(req.Embed())
	return &Decision{VF: vf, IF: ifc}, nil
}
