package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"neurovec/internal/machine"
)

// Host is the read-only view of a framework that policy factories may
// consume. *core.Framework implements it. Stateless policies tolerate a nil
// Host (they read everything from the Request); policies that need trained
// state or a corpus must fail construction with a descriptive error when the
// host cannot supply it.
type Host interface {
	// Arch is the target architecture (never nil on a real framework).
	Arch() *machine.Arch
	// Seed grounds deterministic randomness for stochastic policies.
	Seed() int64
	// Decider returns the trained agent's greedy decision function over
	// embedding vectors, or ErrNoAgent when no agent is trained/loaded.
	Decider() (func(vec []float64) (vf, ifc int), error)
	// NumSamples, Embedding, and BruteForceLabel expose the loaded corpus
	// for index-building policies (NNS trains on the learned embedding with
	// brute-force labels, the paper's Section 3.5 workflow).
	NumSamples() int
	Embedding(sample int) []float64
	BruteForceLabel(sample int) (vf, ifc int)
}

// Factory constructs a policy bound to a host.
type Factory func(h Host) (Policy, error)

// ErrUnknown is wrapped by New for names with no registered factory; the
// serving layer maps it to HTTP 400.
var ErrUnknown = errors.New("unknown policy")

// ErrUnavailable is wrapped by New when a registered factory cannot build
// its policy on the given host (no agent, no corpus to index, ...); the
// serving layer maps it to HTTP 409.
var ErrUnavailable = errors.New("policy unavailable")

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a named policy factory. It panics on a duplicate name:
// registration happens at init time and a silent overwrite would make
// serving behaviour depend on package-initialisation order.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("policy: Register requires a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// lookup returns the factory registered under name.
func lookup(name string) (Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// List returns the registered policy names, sorted.
func List() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New looks up name and constructs its policy against h. Unknown names
// report ErrUnknown; factory failures are wrapped with ErrUnavailable so
// callers can distinguish "no such policy" from "not usable right now".
func New(name string, h Host) (Policy, error) {
	f, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: %w %q (available: %s)", ErrUnknown, name, strings.Join(List(), ", "))
	}
	p, err := f(h)
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w: %w", name, ErrUnavailable, err)
	}
	return p, nil
}
