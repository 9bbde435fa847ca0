package sim

import (
	"fmt"
	"strings"

	"neurovec/internal/ir"
	"neurovec/internal/machine"
	"neurovec/internal/vectorizer"
)

// Breakdown explains where an innermost loop's cycles go under a plan. It is
// a diagnostic view of the same model the simulator charges, offered
// because the paper's deployability discussion (Section 4.2) names
// interpretability as the main obstacle for learned compiler policies: the
// simulator can always say *why* a configuration is slow even when the
// policy network cannot.
type Breakdown struct {
	Label  string
	VF, IF int

	Groups    int64
	Remainder int64

	// Per-vector-group components; GroupCycles is their combination.
	IssueCycles   float64
	PortCycles    float64
	LatencyCycles float64
	MemoryCycles  float64
	SpillCycles   float64
	GroupCycles   float64

	// Fixed costs per loop execution.
	Startup       float64
	ReductionTail float64

	// ScalarIter is the modelled cost of one scalar (remainder) iteration.
	ScalarIter float64

	// Total is exactly what the simulator charges for this loop.
	Total float64

	// Bound names the dominating component: "issue", "ports", "latency",
	// "memory", or "scalar" (for unvectorized/degenerate executions).
	Bound string
}

// String renders the breakdown as a one-loop report.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %s @ VF=%d IF=%d: %.0f cycles, %s-bound\n", b.Label, b.VF, b.IF, b.Total, b.Bound)
	fmt.Fprintf(&sb, "  groups %d (+%d remainder iters), per group: issue %.2f ports %.2f latency %.2f memory %.2f spill %.2f -> %.2f\n",
		b.Groups, b.Remainder, b.IssueCycles, b.PortCycles, b.LatencyCycles, b.MemoryCycles, b.SpillCycles, b.GroupCycles)
	fmt.Fprintf(&sb, "  fixed: startup %.1f, reduction tail %.1f; scalar iter %.2f\n", b.Startup, b.ReductionTail, b.ScalarIter)
	return sb.String()
}

// Explain analyses an innermost loop under a plan, with no enclosing
// ancestors. Explain(l, p, cfg).Total always equals Loop(l, p, cfg); a loop
// inside a nest is broken down as the program charges it by
// Prepared.Explain.
func Explain(l *ir.Loop, plan *vectorizer.Plan, cfg Config) Breakdown {
	lf := newLoopFacts(l, nil, cfg)
	return explain(l, &lf, plan.VF, plan.IF, cfg.Arch)
}

// explain is the core model: the cycles of one execution of innermost loop
// l at (vf, ifc), given its facts lf. It combines four per-group bounds:
//
//   - throughput: legalized uop counts against issue width and load/store
//     ports, with masking overheads for predicated bodies and gather lane
//     costs for strided/non-affine accesses;
//   - latency: the reduction dependence chain (one serial update per group
//     per accumulator; IF and register splitting multiply the accumulators);
//   - memory: the reuse/footprint cache model plus a DRAM bandwidth bound;
//   - spills: register overcommit serialises additional store/reload pairs;
//
// plus fixed startup, horizontal reduction tail, the scalar remainder loop,
// and a runtime-trip-count guard cost.
func explain(l *ir.Loop, lf *loopFacts, vf, ifc int, arch *machine.Arch) Breakdown {
	b := Breakdown{Label: l.Label, VF: vf, IF: ifc}
	trip := max64(l.Trip, 0)
	b.ScalarIter = lf.scalarIter
	if trip == 0 {
		b.Total = 2
		b.Bound = "scalar"
		return b
	}
	if vf <= 1 && ifc <= 1 {
		b.Remainder = trip
		b.Total = float64(trip)*b.ScalarIter + 2
		b.Bound = "scalar"
		return b
	}
	group := int64(vf * ifc)
	b.Groups = trip / group
	b.Remainder = trip % group
	if b.Groups == 0 {
		b.Total = float64(b.Remainder)*b.ScalarIter + 2
		b.Bound = "scalar"
		return b
	}

	var aluUops, loadUops, storeUops float64
	for _, in := range l.Body {
		if in.Op == ir.OpCopy {
			continue
		}
		regs := float64(arch.RegsPerVector(vf, opType(in)))
		u := machine.OpThroughput(in.Op, in.Type) * regs * float64(ifc)
		if in.Predicated {
			u *= 1.2
		}
		aluUops += u
	}
	for _, s := range lf.streams {
		u := accessUops(s, vf, ifc, arch)
		if s.a.Kind == ir.Load {
			loadUops += u
		} else {
			storeUops += u
		}
	}

	pressure := 0
	for _, s := range lf.streams {
		if s.a.Kind == ir.Load {
			pressure += arch.RegsPerVector(vf, s.a.Elem) * ifc
		}
	}
	for _, r := range l.Reductions {
		pressure += arch.RegsPerVector(vf, r.Type) * ifc
	}
	pressure += 2
	if pressure > arch.VecRegs {
		spillUops := float64(pressure-arch.VecRegs) * 2
		b.SpillCycles = spillUops / float64(arch.IssueWidth) * 1.5
	}

	b.IssueCycles = (aluUops + loadUops + storeUops) / float64(arch.IssueWidth)
	b.PortCycles = maxf(loadUops/float64(arch.LoadPorts), storeUops/float64(arch.StorePorts))
	for _, r := range l.Reductions {
		b.LatencyCycles = maxf(b.LatencyCycles, machine.OpLatency(r.Op, r.Type))
	}
	b.MemoryCycles = lf.memoryCycles(vf, ifc, arch)
	b.GroupCycles = maxf(maxf(maxf(b.IssueCycles, b.PortCycles), b.LatencyCycles), b.MemoryCycles) + b.SpillCycles + 1

	b.Startup = 8.0 + float64(ifc)
	for _, r := range l.Reductions {
		lanes := float64(log2i(vf))
		combines := float64(ifc*arch.RegsPerVector(vf, r.Type) - 1)
		b.ReductionTail += (lanes + combines) * machine.OpLatency(r.Op, r.Type) * 0.5
	}

	b.Total = float64(b.Groups)*b.GroupCycles + float64(b.Remainder)*b.ScalarIter + b.Startup + b.ReductionTail
	if !l.TripKnown {
		b.Total += 12
	}

	b.Bound = "issue"
	top := b.IssueCycles
	for _, c := range []struct {
		name string
		v    float64
	}{{"ports", b.PortCycles}, {"latency", b.LatencyCycles}, {"memory", b.MemoryCycles}} {
		if c.v > top {
			top, b.Bound = c.v, c.name
		}
	}
	return b
}
