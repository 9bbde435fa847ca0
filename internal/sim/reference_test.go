package sim

import (
	"math"
	"reflect"
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lower"
	"neurovec/internal/machine"
	"neurovec/internal/vectorizer"
)

// This file keeps the simulator's earlier per-call formulation as a
// test-only reference: every bound re-derives the deduplicated accesses, the
// nest footprints and each stream's service level on its own. The live
// model derives those plan-invariant facts once per loop and Config
// (Prepare); TestMatchesPerCallReference pins the two to the same bits.

func refProgram(p *ir.Program, plans map[string]*vectorizer.Plan, cfg Config) Result {
	cycles := 0.0
	for _, f := range p.Funcs {
		const scalarOpCycles = 0.45
		fc := 20 + float64(f.ScalarOps)*scalarOpCycles
		for _, l := range f.Loops {
			fc += refNestCycles(l, nil, plans, cfg)
		}
		cycles += fc
	}
	return Result{Cycles: cycles, Seconds: cycles / (cfg.Arch.FreqGHz * 1e9)}
}

func refNestCycles(l *ir.Loop, ancestors []*ir.Loop, plans map[string]*vectorizer.Plan, cfg Config) float64 {
	if l.Innermost() {
		plan := plans[l.Label]
		if plan == nil {
			plan = vectorizer.ScalarPlan(l)
		}
		return refExplain(l, ancestors, plan, cfg).Total
	}
	chain := append(append([]*ir.Loop(nil), ancestors...), l)
	perIter := refScalarIterCycles(l, ancestors, cfg) + 1.5
	inner := 0.0
	for _, c := range l.Children {
		inner += refNestCycles(c, chain, plans, cfg)
	}
	trip := float64(max64(l.Trip, 0))
	return trip*(perIter+inner) + 4
}

func refScalarIterCycles(l *ir.Loop, ancestors []*ir.Loop, cfg Config) float64 {
	arch := cfg.Arch
	uops := 1.0
	lat := 0.0
	for _, in := range l.Body {
		if in.Op == ir.OpCopy {
			continue
		}
		uops += machine.OpThroughput(in.Op, in.Type)
	}
	accesses := dedupAccesses(nil, l.Accesses)
	var loads, stores float64
	for _, a := range accesses {
		if a.InvariantIn(l.Label) {
			continue
		}
		if a.Kind == ir.Load {
			loads++
		} else {
			stores++
		}
	}
	uops += loads + stores
	for _, r := range l.Reductions {
		lat = maxf(lat, machine.OpLatency(r.Op, r.Type))
	}
	cyc := maxf(uops/float64(arch.IssueWidth), maxf(loads/float64(arch.LoadPorts), stores/float64(arch.StorePorts)))
	cyc = maxf(cyc, lat)
	if l.HasIf {
		cyc += 0.25 * arch.BranchMissCycles * 0.5
	}
	cyc = maxf(cyc, refMemoryCycles(l, ancestors, accesses, 1, 1, cfg))
	return cyc + 0.4
}

func refAccessUops(a *ir.Access, label string, vf, ifc int, arch *machine.Arch) float64 {
	var u float64
	stride := a.StrideFor(label)
	switch {
	case !a.Affine:
		u = float64(vf*ifc) * arch.GatherLaneCost * 1.2
	case stride == 1 || stride == -1:
		u = float64(arch.RegsPerVector(vf, a.Elem) * ifc)
		if !a.Aligned {
			u *= 1.25
		}
	default:
		u = float64(vf*ifc) * arch.GatherLaneCost
	}
	if a.Predicated {
		u *= 1.15
	}
	return u
}

func refMemoryCycles(l *ir.Loop, ancestors []*ir.Loop, accesses []*ir.Access, vf, ifc int, cfg Config) float64 {
	arch := cfg.Arch
	groupElems := float64(vf * ifc)
	var cycles, dramBytes float64
	for _, a := range accesses {
		if a.InvariantIn(l.Label) {
			continue
		}
		level := refServiceLevel(a, l, ancestors, cfg)
		stride := abs64(a.StrideFor(l.Label))
		elem := float64(a.Elem.Size())
		var lines float64
		switch {
		case !a.Affine:
			lines = groupElems
		case stride == 0:
			lines = 1
		case stride*int64(a.Elem.Size()) >= arch.LineBytes:
			lines = groupElems
		default:
			lines = groupElems * float64(stride) * elem / float64(arch.LineBytes)
		}
		lat := levelLatency(level, arch)
		hide := 1.0
		if a.Affine && stride == 1 {
			hide = 0.25
		}
		cycles += lines * (lat - arch.L1Lat) * hide
		if level == levelDRAM {
			dramBytes += lines * float64(arch.LineBytes)
		}
	}
	bw := dramBytes / arch.StreamBytesPerCycle
	return maxf(cycles, bw)
}

func refServiceLevel(a *ir.Access, l *ir.Loop, ancestors []*ir.Loop, cfg Config) cacheLevel {
	arch := cfg.Arch
	chain := append(append([]*ir.Loop(nil), ancestors...), l)
	best := levelDRAM
	if cfg.WarmCaches {
		if lv, ok := fitLevel(refFootprintBelow(l, chain, 0), arch); ok {
			best = lv
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if a.StrideFor(chain[i].Label) != 0 {
			continue
		}
		ws := refFootprintBelow(l, chain, i+1)
		if lv, ok := fitLevel(ws, arch); ok && lv < best {
			best = lv
		}
		break
	}
	return best
}

func refFootprintBelow(l *ir.Loop, chain []*ir.Loop, from int) int64 {
	var total int64
	for _, a := range dedupAccesses(nil, l.Accesses) {
		total += refRegionBytes(a, chain[from:])
	}
	return total
}

func refRegionBytes(a *ir.Access, loops []*ir.Loop) int64 {
	elem := int64(a.Elem.Size())
	if !a.Affine {
		return arrayElems(a) * elem
	}
	span := int64(1)
	for _, lp := range loops {
		s := abs64(a.StrideFor(lp.Label))
		if s == 0 {
			continue
		}
		span += s * max64(lp.Trip-1, 0)
	}
	if n := arrayElems(a); n > 0 && span > n {
		span = n
	}
	return span * elem
}

func refExplain(l *ir.Loop, ancestors []*ir.Loop, plan *vectorizer.Plan, cfg Config) Breakdown {
	arch := cfg.Arch
	b := Breakdown{Label: l.Label, VF: plan.VF, IF: plan.IF}
	trip := max64(l.Trip, 0)
	b.ScalarIter = refScalarIterCycles(l, ancestors, cfg)
	if trip == 0 {
		b.Total = 2
		b.Bound = "scalar"
		return b
	}
	vf, ifc := plan.VF, plan.IF
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
	accesses := dedupAccesses(nil, l.Accesses)
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
	for _, a := range accesses {
		if a.InvariantIn(l.Label) {
			continue
		}
		u := refAccessUops(a, l.Label, vf, ifc, arch)
		if a.Kind == ir.Load {
			loadUops += u
		} else {
			storeUops += u
		}
	}
	pressure := 0
	for _, a := range accesses {
		if a.Kind == ir.Load && !a.InvariantIn(l.Label) {
			pressure += arch.RegsPerVector(vf, a.Elem) * ifc
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
	b.MemoryCycles = refMemoryCycles(l, ancestors, accesses, vf, ifc, cfg)
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

// sameBreakdown compares every field, floats by their bits.
func sameBreakdown(got, want Breakdown) bool {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		switch gf, wf := g.Field(i), w.Field(i); gf.Kind() {
		case reflect.Float64:
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return false
			}
		default:
			if gf.Interface() != wf.Interface() {
				return false
			}
		}
	}
	return true
}

// referencePrograms lowers every shipped benchmark suite plus 200
// extended-grammar generated samples.
func referencePrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	add := func(name, src string, params map[string]int64) {
		prog, err := lang.ParseFile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := lower.DefaultOptions()
		opts.ParamValues = params
		p, err := lower.Program(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = p
	}
	for _, suite := range []struct {
		name string
		bs   []dataset.Benchmark
	}{{"polybench", dataset.PolyBench()}, {"mibench", dataset.MiBench()}, {"tsvc", dataset.TSVC()}, {"figure7", dataset.EvalBenchmarks()}} {
		for _, b := range suite.bs {
			add(suite.name+"/"+b.Name, b.Source, b.ParamValues)
		}
	}
	for _, s := range dataset.Generate(dataset.GenConfig{N: 200, Seed: 11, Extended: true}).Samples {
		add("generated/"+s.Name, s.Source, nil)
	}
	return progs
}

// referenceActions is every (VF, IF) action of arch plus off-grid requests
// that vectorizer.New floors or clamps: VF 0/3/128 and IF 0/3/32.
func referenceActions(arch *machine.Arch) (vfs, ifs []int) {
	return append(arch.VFs(), 0, 3, 128), append(arch.IFs(), 0, 3, 32)
}

// TestMatchesPerCallReference pins the prepared simulator to the per-call
// reference bit for bit, with warm and cold caches and one Prepared per
// (program, Config) reused across every plan: Cycles and Program; every
// Breakdown field of each innermost loop explained within its ancestor
// chain by Prepared.Explain; and Loop without ancestors; at every action
// and off-grid request.
func TestMatchesPerCallReference(t *testing.T) {
	progs := referencePrograms(t)
	warm := DefaultConfig()
	cold := warm
	cold.WarmCaches = false
	arch := warm.Arch
	vfs, ifs := referenceActions(arch)
	loops := 0
	for name, p := range progs {
		for _, cfg := range []Config{warm, cold} {
			pp := Prepare(p, cfg)
			var walk func(l *ir.Loop, ancestors []*ir.Loop)
			walk = func(l *ir.Loop, ancestors []*ir.Loop) {
				if !l.Innermost() {
					chain := append(append([]*ir.Loop(nil), ancestors...), l)
					for _, c := range l.Children {
						walk(c, chain)
					}
					return
				}
				loops++
				for _, vf := range vfs {
					for _, ifc := range ifs {
						plan := vectorizer.New(l, arch, vf, ifc)
						if got, want := pp.Explain(plan), refExplain(l, ancestors, plan, cfg); !sameBreakdown(got, want) {
							t.Fatalf("%s %s (%d,%d) warm=%v: Prepared.Explain\n got %+v\nwant %+v", name, l.Label, vf, ifc, cfg.WarmCaches, got, want)
						}
						if got, want := Loop(l, plan, cfg), refExplain(l, nil, plan, cfg).Total; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s (%d,%d) warm=%v: Loop = %v, want %v", name, l.Label, vf, ifc, cfg.WarmCaches, got, want)
						}
					}
				}
			}
			for _, f := range p.Funcs {
				for _, root := range f.Loops {
					walk(root, nil)
				}
			}
			for _, vf := range vfs {
				for _, ifc := range ifs {
					plans := map[string]*vectorizer.Plan{}
					for _, l := range p.InnermostLoops() {
						plans[l.Label] = vectorizer.New(l, arch, vf, ifc)
					}
					want := refProgram(p, plans, cfg)
					if got := pp.Cycles(plans); math.Float64bits(got) != math.Float64bits(want.Cycles) {
						t.Fatalf("%s (%d,%d) warm=%v: Cycles = %v, want %v", name, vf, ifc, cfg.WarmCaches, got, want.Cycles)
					}
					if got := Program(p, plans, cfg); math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) || math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) {
						t.Fatalf("%s (%d,%d) warm=%v: Program = %+v, want %+v", name, vf, ifc, cfg.WarmCaches, got, want)
					}
				}
			}
		}
	}
	if loops < 2*250 {
		t.Fatalf("reference covered only %d innermost loops over both configs", loops)
	}
	t.Logf("%d programs, %d innermost loops over both configs", len(progs), loops)
}
