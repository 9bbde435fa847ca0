// Package vectorizer turns a requested (VF, IF) pair — from a pragma, the
// baseline cost model, or a learning agent — into a legal vectorization plan
// for an innermost loop.
//
// The plan is what the simulator executes. Legality clamping implements the
// paper's correctness contract: "the framework cannot introduce new errors in
// the compiled code … if the agent accidentally injected bad pragmas, the
// compiler will ignore it". A request beyond the dependence-limited maximum
// VF, beyond the architecture bound, or beyond what the trip count supports
// is reduced, never honoured unsafely.
package vectorizer

import (
	"fmt"

	"neurovec/internal/deps"
	"neurovec/internal/ir"
	"neurovec/internal/machine"
)

// Plan is the outcome of vectorization planning for one innermost loop.
type Plan struct {
	Loop *ir.Loop

	// RequestedVF and RequestedIF are what the caller asked for.
	RequestedVF int
	RequestedIF int

	// VF and IF are the effective, legal factors the simulator will model.
	VF int
	IF int

	// MaxLegalVF is the dependence-limited bound (already clamped to the
	// architecture and rounded to a power of two).
	MaxLegalVF int

	// Clamped reports whether the request was reduced for legality.
	Clamped bool
}

// Scalar reports whether the plan leaves the loop entirely scalar.
func (p *Plan) Scalar() bool { return p.VF == 1 && p.IF == 1 }

// String renders the plan compactly.
func (p *Plan) String() string {
	s := fmt.Sprintf("%s: VF=%d IF=%d", p.Loop.Label, p.VF, p.IF)
	if p.Clamped {
		s += fmt.Sprintf(" (requested %d,%d; max legal VF %d)", p.RequestedVF, p.RequestedIF, p.MaxLegalVF)
	}
	return s
}

// New builds a legal plan for the loop from a requested factor pair: the
// dependence analysis bounds VF, then Clamp applies it.
func New(l *ir.Loop, arch *machine.Arch, vf, ifc int) *Plan {
	return Clamp(l, arch, deps.MaxLegalVF(l, arch.MaxVF), vf, ifc)
}

// Clamp builds the legal plan for a requested factor pair given the loop's
// dependence-limited bound maxLegalVF, which must be deps.MaxLegalVF(l,
// arch.MaxVF): callers that plan one loop many times analyse it once.
func Clamp(l *ir.Loop, arch *machine.Arch, maxLegalVF, vf, ifc int) *Plan {
	eVF, eIF := Effective(l, arch, maxLegalVF, vf, ifc)
	// Rounding, legality and trip bounds are all the ways a request can
	// change, so it was honoured exactly when it equals its effective pair.
	return &Plan{Loop: l, RequestedVF: vf, RequestedIF: ifc, VF: eVF, IF: eIF,
		MaxLegalVF: maxLegalVF, Clamped: eVF != vf || eIF != ifc}
}

// Effective is the clamp rule: the legal (VF, IF) that Clamp's plan
// carries for a requested pair, without building the plan. Requests that
// are not powers of two are rounded down; requests below one become one.
func Effective(l *ir.Loop, arch *machine.Arch, maxLegalVF, vf, ifc int) (int, int) {
	eVF := min(floorPow2(vf), maxLegalVF)
	eIF := min(floorPow2(ifc), arch.MaxIF)

	// Trip-count clamping: a vector body wider than the whole loop would
	// execute zero vector iterations; the compiler would refuse such a
	// width. Only applies when the trip count is a compile-time constant.
	if l.TripKnown && l.Trip > 0 {
		eVF = min(eVF, floorPow2(int(min(l.Trip, int64(arch.MaxVF)))))
		eIF = min(eIF, floorPow2(int(l.Trip)/eVF))
	}
	return eVF, eIF
}

// ScalarPlan returns the do-nothing plan (VF=1, IF=1).
func ScalarPlan(l *ir.Loop) *Plan {
	return &Plan{Loop: l, RequestedVF: 1, RequestedIF: 1, VF: 1, IF: 1, MaxLegalVF: 1}
}

func floorPow2(v int) int {
	if v < 1 {
		return 1
	}
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}
