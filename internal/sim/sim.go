// Package sim is the cycle-level loop execution simulator that stands in for
// the paper's physical testbed (a 2.7 GHz AVX Intel i7-8559U).
//
// The simulator is analytic rather than trace-driven: for each innermost
// loop and vectorization plan it computes a cycle count from four coupled
// bounds —
//
//   - issue throughput: uop counts per vector group against issue width and
//     load/store ports, including widening (a VF wider than the machine
//     splits into several physical ops), gather/scatter lane costs for
//     strided and non-affine accesses, masking overheads for predicated
//     bodies, and spill traffic when VF*IF exceeds the register file;
//   - dependence latency: recognised reductions carry a serial chain whose
//     latency only interleaving (IF) and register-splitting can hide;
//   - memory hierarchy: an analytic reuse/footprint cache model assigns each
//     access stream a service level (L1/L2/L3/DRAM) and charges per-line
//     latency plus a streaming-bandwidth bound;
//   - loop overhead: per-group induction/branch cost, startup cost, the
//     scalar remainder loop, and the horizontal reduction tail.
//
// These are exactly the effects LLVM's linear per-opcode cost model cannot
// see, which is the structural reason a learned policy finds better factors
// (the paper's Figures 1, 2 and 7). The model is deterministic, so rewards
// are noise-free and experiments reproduce bit for bit.
package sim

import (
	"maps"
	"slices"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/machine"
	"neurovec/internal/vectorizer"
)

// Config controls simulation.
type Config struct {
	Arch *machine.Arch
	// WarmCaches models the paper's measurement harness, which runs each
	// kernel ~one million times and averages: data resident from previous
	// runs stays cached if it fits. When false every access stream is cold.
	WarmCaches bool
}

// DefaultConfig returns the configuration used across the evaluation.
func DefaultConfig() Config {
	return Config{Arch: machine.IntelAVX2(), WarmCaches: true}
}

// Result is a simulated execution measurement.
type Result struct {
	Cycles  float64
	Seconds float64
}

// Program simulates a whole translation unit: straight-line code plus every
// loop nest, with the given per-loop vectorization plans (keyed by loop
// label; loops without a plan run scalar). It is Prepare then Cycles; a
// caller that simulates one program under many plans prepares it once.
func Program(p *ir.Program, plans map[string]*vectorizer.Plan, cfg Config) Result {
	cycles := Prepare(p, cfg).Cycles(plans)
	return Result{Cycles: cycles, Seconds: cycles / (cfg.Arch.FreqGHz * 1e9)}
}

// Loop simulates a single innermost loop under a plan, with no enclosing
// ancestors. Convenience for tests and microbenchmarks.
func Loop(l *ir.Loop, plan *vectorizer.Plan, cfg Config) float64 {
	return Explain(l, plan, cfg).Total
}

// Prepared is a program's plan-invariant simulation facts under one Config:
// every loop's loopFacts within its nest, derived once, so simulating the
// program under many plans re-derives none of them. It is read-only after
// Prepare, so any number of goroutines may call its methods.
type Prepared struct {
	cfg   Config
	funcs []preparedFunc
	// loops holds every loop of the program in nest preorder (outer before
	// inner, siblings in order), so a loop's subtree is loops[i:loops[i].end]
	// and its first child, if any, is loops[i+1].
	loops []preparedLoop
	// streams backs every loop's facts.streams, one loop after another.
	streams []stream
}

// preparedFunc is one function: its straight-line cost and the range of
// loops that holds its nests.
type preparedFunc struct {
	straightLine float64
	first, end   int
}

// preparedLoop is one loop, its facts within its enclosing nest, and the end
// of its subtree in Prepared.loops.
type preparedLoop struct {
	loop  *ir.Loop
	facts loopFacts
	end   int
}

// Prepare derives p's plan-invariant facts under cfg.
func Prepare(p *ir.Program, cfg Config) *Prepared {
	const scalarOpCycles = 0.45 // straight-line IPC ~2.2 on a 4-wide core
	// Size every array up front: a loop has at most one stream per access.
	loops, accesses := 0, 0
	for _, f := range p.Funcs {
		for _, root := range f.Loops {
			root.Walk(func(l *ir.Loop) { loops, accesses = loops+1, accesses+len(l.Accesses) })
		}
	}
	pp := &Prepared{
		cfg:     cfg,
		funcs:   make([]preparedFunc, 0, len(p.Funcs)),
		loops:   make([]preparedLoop, 0, loops),
		streams: make([]stream, 0, accesses),
	}
	// One ancestor chain serves the whole walk: a loop's children overwrite
	// only the slots past its own.
	chain := make([]*ir.Loop, 0, 8)
	for _, f := range p.Funcs {
		pf := preparedFunc{straightLine: 20 + float64(f.ScalarOps)*scalarOpCycles, first: len(pp.loops)}
		for _, root := range f.Loops {
			pp.add(root, chain)
		}
		pf.end = len(pp.loops)
		pp.funcs = append(pp.funcs, pf)
	}
	return pp
}

// add appends l and its subtree in preorder. ancestors are the loops
// enclosing l, outermost first.
func (pp *Prepared) add(l *ir.Loop, ancestors []*ir.Loop) {
	i := len(pp.loops)
	first := len(pp.streams)
	pp.streams = appendStreams(pp.streams, l, ancestors, pp.cfg)
	lf := loopFacts{streams: pp.streams[first:len(pp.streams):len(pp.streams)]}
	lf.scalarIter = lf.scalarIterCycles(l, pp.cfg.Arch)
	pp.loops = append(pp.loops, preparedLoop{loop: l, facts: lf})
	if !l.Innermost() {
		chain := append(ancestors, l)
		for _, c := range l.Children {
			pp.add(c, chain)
		}
	}
	pp.loops[i].end = len(pp.loops)
}

// Cycles simulates one run of the whole program under plans (keyed by loop
// label; loops without a plan run scalar): each function's straight-line
// code plus one complete execution of each of its loop nests.
func (pp *Prepared) Cycles(plans map[string]*vectorizer.Plan) float64 {
	cycles := 0.0
	for _, f := range pp.funcs {
		fc := f.straightLine
		for i := f.first; i < f.end; i = pp.loops[i].end {
			fc += pp.nestCycles(i, plans)
		}
		cycles += fc
	}
	return cycles
}

// Explain breaks plan.Loop's cycles down within its enclosing nest: its
// Total is exactly what Cycles charges for one execution of the loop under
// plan. A loop outside the prepared program is explained without
// ancestors, as Explain does.
func (pp *Prepared) Explain(plan *vectorizer.Plan) Breakdown {
	for i := range pp.loops {
		if pl := &pp.loops[i]; pl.loop == plan.Loop {
			return explain(pl.loop, &pl.facts, plan.VF, plan.IF, pp.cfg.Arch)
		}
	}
	return Explain(plan.Loop, plan, pp.cfg)
}

// nestCycles simulates one complete execution of the nest rooted at
// loops[i].
func (pp *Prepared) nestCycles(i int, plans map[string]*vectorizer.Plan) float64 {
	pl := &pp.loops[i]
	l := pl.loop
	if l.Innermost() {
		vf, ifc := 1, 1 // no plan: scalar
		if plan := plans[l.Label]; plan != nil {
			vf, ifc = plan.VF, plan.IF
		}
		return explain(l, &pl.facts, vf, ifc, pp.cfg.Arch).Total
	}
	// Non-innermost loops execute scalar: their own body work per iteration
	// plus one full execution of each child nest per iteration.
	perIter := pl.facts.scalarIter + 1.5 // outer-loop control overhead
	inner := 0.0
	for c := i + 1; c < pl.end; c = pp.loops[c].end {
		inner += pp.nestCycles(c, plans)
	}
	trip := float64(max64(l.Trip, 0))
	return trip*(perIter+inner) + 4 // nest setup
}

// loopFacts are the facts about a loop, within its enclosing nest, that no
// vectorization plan changes. Prepare derives them once per loop, and
// explain charges the scalar and the vector bounds from them.
type loopFacts struct {
	// streams are the deduplicated accesses that vary in the loop, in
	// access order.
	streams []stream
	// scalarIter is the modelled cost of one scalar iteration.
	scalarIter float64
}

// stream is one access that varies in the loop: its stride in the loop, in
// elements, and the cache level that services it.
type stream struct {
	a      *ir.Access
	stride int64
	level  cacheLevel
}

// newLoopFacts derives l's plan-invariant facts. ancestors are the loops
// enclosing l, outermost first.
func newLoopFacts(l *ir.Loop, ancestors []*ir.Loop, cfg Config) loopFacts {
	lf := loopFacts{streams: appendStreams(nil, l, ancestors, cfg)}
	lf.scalarIter = lf.scalarIterCycles(l, cfg.Arch)
	return lf
}

// appendStreams appends l's streams, in access order, to dst. ancestors
// are the loops enclosing l, outermost first.
//
// Each stream's service level comes from an analytic reuse/footprint model:
//
//  1. If the whole nest's data fits a level and caches are warm (the
//     harness re-runs kernels), the stream hits that level.
//  2. Otherwise, if the access is invariant in some enclosing loop, the
//     data touched during one iteration of that loop must fit for the reuse
//     to be captured; the smallest level that holds it services the stream.
//  3. Otherwise the stream is cold: DRAM.
//
// Loop tiling (package polly) shrinks the one-iteration footprint in rule 2
// — that is precisely how tiling shows up as a win in this model.
func appendStreams(dst []stream, l *ir.Loop, ancestors []*ir.Loop, cfg Config) []stream {
	arch := cfg.Arch
	// Nests are shallow and loops carry a few dozen accesses at most: the
	// chain, its footprints and the deduplicated accesses fit these stack
	// buffers, so none allocates.
	var chainBuf [8]*ir.Loop
	chain := append(append(chainBuf[:0], ancestors...), l)
	var accBuf [32]*ir.Access
	accesses := dedupAccesses(accBuf[:0], l.Accesses)
	var fpBuf [9]int64
	fp := footprints(fpBuf[:0], accesses, chain)

	warm := levelDRAM
	if cfg.WarmCaches {
		if lv, ok := fitLevel(fp[0], arch); ok {
			warm = lv
		}
	}
	for _, a := range accesses {
		if a.InvariantIn(l.Label) {
			continue
		}
		s := stream{a: a, stride: a.StrideFor(l.Label), level: warm}
		// Reuse rule: innermost enclosing loop in which the stream is
		// invariant; the working set during one of its iterations is
		// everything the loops inside it touch.
		for i := len(chain) - 1; i >= 0; i-- {
			if a.StrideFor(chain[i].Label) != 0 {
				continue
			}
			if lv, ok := fitLevel(fp[i+1], arch); ok && lv < s.level {
				s.level = lv
			}
			break
		}
		dst = append(dst, s)
	}
	return dst
}

// scalarIterCycles models one scalar iteration of the loop body.
func (lf *loopFacts) scalarIterCycles(l *ir.Loop, arch *machine.Arch) float64 {
	uops := 1.0 // induction/compare/branch macro-fused
	lat := 0.0
	for _, in := range l.Body {
		if in.Op == ir.OpCopy {
			continue
		}
		uops += machine.OpThroughput(in.Op, in.Type)
	}
	var loads, stores float64
	for _, s := range lf.streams {
		if s.a.Kind == ir.Load {
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
	// Data-dependent branches in the body mispredict some of the time; the
	// vectorized (if-converted) form does not pay this.
	if l.HasIf {
		cyc += 0.25 * arch.BranchMissCycles * 0.5
	}
	cyc = maxf(cyc, lf.memoryCycles(1, 1, arch))
	return cyc + 0.4 // average front-end bubble
}

// accessUops models the issue cost of one access stream per vector group.
func accessUops(s stream, vf, ifc int, arch *machine.Arch) float64 {
	var u float64
	a := s.a
	switch {
	case !a.Affine:
		u = float64(vf*ifc) * arch.GatherLaneCost * 1.2
	case s.stride == 1 || s.stride == -1:
		u = float64(arch.RegsPerVector(vf, a.Elem) * ifc)
		if !a.Aligned {
			u *= 1.25 // cache-line split probability on unaligned vectors
		}
	default:
		// Strided access: gather/scatter or scalarized insertion.
		u = float64(vf*ifc) * arch.GatherLaneCost
	}
	if a.Predicated {
		u *= 1.15
	}
	return u
}

// memoryCycles charges per-group cache-hierarchy latency and a DRAM
// bandwidth bound for the loop's access streams.
func (lf *loopFacts) memoryCycles(vf, ifc int, arch *machine.Arch) float64 {
	groupElems := float64(vf * ifc)
	var cycles, dramBytes float64
	for _, s := range lf.streams {
		a := s.a
		stride := abs64(s.stride)
		elem := float64(a.Elem.Size())
		var lines float64
		switch {
		case !a.Affine:
			lines = groupElems // each lane potentially its own line
		case stride == 0:
			lines = 1
		case stride*int64(a.Elem.Size()) >= arch.LineBytes:
			lines = groupElems
		default:
			// Fractional lines per group represent line traffic amortised
			// over consecutive groups (a new line every few iterations).
			lines = groupElems * float64(stride) * elem / float64(arch.LineBytes)
		}
		lat := levelLatency(s.level, arch)
		hide := 1.0
		if a.Affine && stride == 1 {
			// Hardware prefetchers hide most latency on unit-stride streams.
			hide = 0.25
		}
		cycles += lines * (lat - arch.L1Lat) * hide
		if s.level == levelDRAM {
			dramBytes += lines * float64(arch.LineBytes)
		}
	}
	bw := dramBytes / arch.StreamBytesPerCycle
	return maxf(cycles, bw)
}

type cacheLevel int

const (
	levelL1 cacheLevel = iota
	levelL2
	levelL3
	levelDRAM
)

func levelLatency(lv cacheLevel, arch *machine.Arch) float64 {
	switch lv {
	case levelL1:
		return arch.L1Lat
	case levelL2:
		return arch.L2Lat
	case levelL3:
		return arch.L3Lat
	}
	return arch.MemLat
}

// fitLevel returns the smallest cache level holding ws bytes.
func fitLevel(ws int64, arch *machine.Arch) (cacheLevel, bool) {
	switch {
	case ws <= arch.L1Bytes:
		return levelL1, true
	case ws <= arch.L2Bytes:
		return levelL2, true
	case ws <= arch.L3Bytes:
		return levelL3, true
	}
	return levelDRAM, false
}

// footprints appends to dst, for every from in [0, len(chain)], the bytes
// the accesses span while the loops chain[from:] each run their full trip
// count: dst[0] is the nest's resident set if the kernel re-runs, dst[i+1]
// the working set of one iteration of chain[i]. An affine stream spans one
// element plus its stride times (trip-1) per loop it moves in, capped at its
// array; a non-affine one is assumed to range over its whole array.
func footprints(dst []int64, accesses []*ir.Access, chain []*ir.Loop) []int64 {
	for range len(chain) + 1 {
		dst = append(dst, 0)
	}
	for _, a := range accesses {
		elem := int64(a.Elem.Size())
		n := arrayElems(a)
		if !a.Affine {
			for i := range dst {
				dst[i] += n * elem
			}
			continue
		}
		span := int64(1)
		for from := len(chain); from >= 0; from-- {
			if from < len(chain) {
				if s := abs64(a.StrideFor(chain[from].Label)); s != 0 {
					span += s * max64(chain[from].Trip-1, 0)
				}
			}
			region := span
			if n > 0 && region > n {
				region = n
			}
			dst[from] += region * elem
		}
	}
	return dst
}

func arrayElems(a *ir.Access) int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	if len(a.Dims) == 0 {
		return 1 << 30 // unknown extent
	}
	return n
}

// dedupAccesses merges duplicate loads of the same address expression (the
// common v[i]*v[i] pattern), which a real compiler CSEs away: an affine load
// is dropped when an earlier affine load of the same array has the same
// offset and strides. The rest are appended to out, in order. Loops carry a
// few dozen accesses at most, so the pairwise scan is cheaper than building
// keys for a set.
func dedupAccesses(out, in []*ir.Access) []*ir.Access {
	for _, a := range in {
		if !isAffineLoad(a) || !slices.ContainsFunc(out, func(b *ir.Access) bool {
			return isAffineLoad(b) && b.Array == a.Array && b.Offset == a.Offset && maps.Equal(b.Strides, a.Strides)
		}) {
			out = append(out, a)
		}
	}
	return out
}

func isAffineLoad(a *ir.Access) bool { return a.Kind == ir.Load && a.Affine }

func opType(in ir.Instr) lang.ScalarType {
	if in.Type == lang.TypeVoid {
		return lang.TypeInt
	}
	return in.Type
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func log2i(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
