package policy_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"neurovec/internal/core"
	"neurovec/internal/dataset"
	"neurovec/internal/machine"
	"neurovec/internal/policy"
	"neurovec/internal/rl"
)

// corpusFramework builds a small trained framework: every registered policy
// (including rl and nns, which need trained state and a labelled corpus) can
// decide on it.
func corpusFramework(t *testing.T) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Embed.OutDim = 32
	cfg.Embed.EmbedDim = 8
	cfg.Embed.MaxContexts = 32
	fw := core.New(cfg)
	if err := fw.LoadSet(dataset.Generate(dataset.GenConfig{N: 12, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	rc := rl.DefaultConfig(nil, nil)
	rc.Batch, rc.MiniBatch, rc.Iterations, rc.LR = 48, 16, 2, 1e-3
	rc.Hidden = []int{16, 16}
	fw.Train(&rc)
	return fw
}

func member(set []int, v int) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// TestPoliciesParityAndLegality is the table-driven acceptance test for the
// unified API: every registered policy must be resolvable by name on a
// trained framework and must return decisions drawn from the architecture's
// action space, for every loop of a corpus of generated programs.
func TestPoliciesParityAndLegality(t *testing.T) {
	fw := corpusFramework(t)
	vfs, ifs := fw.Arch().VFs(), fw.Arch().IFs()
	srcs := dataset.Generate(dataset.GenConfig{N: 3, Seed: 77}).Samples

	names := policy.List()
	want := []string{"brute", "costmodel", "nns", "random", "rl"}
	if !slices.Equal(names, want) {
		t.Fatalf("registered policies = %v, want exactly %v", names, want)
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, s := range srcs {
				resp, err := fw.PredictLoops(context.Background(), s.Source, nil, core.WithPolicyName(name))
				if err != nil {
					t.Fatalf("policy %s on %s: %v", name, s.Name, err)
				}
				if resp.Policy != name {
					t.Fatalf("CompileResponse.Policy = %q, want %q", resp.Policy, name)
				}
				if len(resp.Loops) == 0 {
					t.Fatalf("policy %s made no decisions for %s", name, s.Name)
				}
				for _, d := range resp.Loops {
					if !member(vfs, d.VF) || !member(ifs, d.IF) {
						t.Fatalf("policy %s chose illegal (VF=%d, IF=%d) for %s/%s (space %v x %v)",
							name, d.VF, d.IF, s.Name, d.Label, vfs, ifs)
					}
				}
			}
		})
	}
}

// TestPoliciesDeterministicPerRequest checks that repeating a request yields
// the same decision for every policy — the property the serving layer's
// response cache relies on (notably for "random", which must derive its
// randomness from the request, not from shared mutable state).
func TestPoliciesDeterministicPerRequest(t *testing.T) {
	fw := corpusFramework(t)
	src := dataset.Generate(dataset.GenConfig{N: 1, Seed: 5}).Samples[0].Source
	for _, name := range policy.List() {
		a, err := fw.PredictLoops(context.Background(), src, nil, core.WithPolicyName(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := fw.PredictLoops(context.Background(), src, nil, core.WithPolicyName(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Loops) != len(b.Loops) {
			t.Fatalf("%s: decision count changed between identical requests", name)
		}
		for i := range a.Loops {
			if a.Loops[i] != b.Loops[i] {
				t.Fatalf("%s: decision %d differs between identical requests: %+v vs %+v",
					name, i, a.Loops[i], b.Loops[i])
			}
		}
	}
}

// TestRLPolicyRequiresAgent checks the silent-fallback fix end to end: the
// default policy on an untrained framework must surface ErrNoAgent.
func TestRLPolicyRequiresAgent(t *testing.T) {
	fw := core.New(core.DefaultConfig())
	src := "int a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = i; } }"
	_, err := fw.PredictLoops(context.Background(), src, nil)
	if !errors.Is(err, policy.ErrNoAgent) {
		t.Fatalf("err = %v, want ErrNoAgent", err)
	}
}

// TestNNSUnavailableWithoutCorpus checks that nns fails construction (with
// ErrUnavailable) on a framework with no loaded units — the serving layer's
// 409 path.
func TestNNSUnavailableWithoutCorpus(t *testing.T) {
	fw := core.New(core.DefaultConfig())
	_, err := fw.Policy("nns")
	if !errors.Is(err, policy.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestLookupUnknownPolicy(t *testing.T) {
	fw := core.New(core.DefaultConfig())
	src := "int a[64]; void f() { for (int i = 0; i < 64; i++) { a[i] = i; } }"
	// polly is a figure-only comparator: a program transform that per-loop
	// pragmas cannot express, so it is not a servable policy name.
	for _, name := range []string{"quantum", "polly"} {
		if _, err := fw.Policy(name); !errors.Is(err, policy.ErrUnknown) {
			t.Fatalf("%s: err = %v, want ErrUnknown", name, err)
		}
		if _, err := fw.PredictLoops(context.Background(), src, nil, core.WithPolicyName(name)); !errors.Is(err, policy.ErrUnknown) {
			t.Fatalf("%s: PredictLoops err = %v, want ErrUnknown", name, err)
		}
	}
}

// syntheticRequest builds a brute-force request over a fake objective so
// cancellation behaviour can be tested without a framework: the score
// improves (decreases) with every evaluation, making "best-so-far" exactly
// the last pair evaluated before the deadline.
func syntheticRequest(evals *int, cancelAfter int, cancel context.CancelFunc) *policy.Request {
	return &policy.Request{
		Name: "synthetic",
		Arch: machine.IntelAVX2(),
		Evaluate: func(vf, ifc int) float64 {
			*evals++
			if *evals == cancelAfter {
				cancel()
			}
			return float64(10000 - *evals)
		},
	}
}

// TestBruteDecideHonorsCancellation cancels the context mid-search and
// checks the decision is the best of the evaluated prefix, flagged
// Truncated, with the remaining grid never evaluated.
func TestBruteDecideHonorsCancellation(t *testing.T) {
	pol, err := policy.New("brute", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	const stopAt = 10
	req := syntheticRequest(&evals, stopAt, cancel)
	arch := req.Arch
	total := len(arch.VFs()) * len(arch.IFs())

	d, err := pol.Decide(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Truncated {
		t.Fatal("mid-search cancellation not reported as Truncated")
	}
	if evals != stopAt {
		t.Fatalf("evaluated %d candidates after cancellation at %d (grid %d)", evals, stopAt, total)
	}
	// The objective strictly improves per evaluation, so best-so-far is the
	// stopAt-th pair in iteration order (VF-major over IFs).
	ifs := arch.IFs()
	wantVF := arch.VFs()[(stopAt-1)/len(ifs)]
	wantIF := ifs[(stopAt-1)%len(ifs)]
	if d.VF != wantVF || d.IF != wantIF {
		t.Fatalf("best-so-far = (%d,%d), want (%d,%d)", d.VF, d.IF, wantVF, wantIF)
	}
}

// TestBruteDecideExpiredContext: a context that is already done must not
// evaluate anything and must return the legal scalar fallback, truncated.
func TestBruteDecideExpiredContext(t *testing.T) {
	pol, err := policy.New("brute", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	req := syntheticRequest(&evals, -1, func() {})
	d, err := pol.Decide(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Fatalf("expired context still evaluated %d candidates", evals)
	}
	if !d.Truncated || d.VF != 1 || d.IF != 1 {
		t.Fatalf("decision = %+v, want truncated scalar fallback", d)
	}
}
