// Package polly is the stand-in for Polly, the LLVM polyhedral optimizer the
// paper compares against. Like the original ("to date the main optimizations
// in Polly are tiling and loop fusion to improve data locality"), it detects
// affine loop nests and applies two classical transformations on the IR:
//
//   - loop tiling: an affine nest of depth >= 2 is strip-mined into block
//     loops and point loops so that one block's working set fits in a small
//     cache level. In the simulator's reuse/footprint model this directly
//     shrinks the one-iteration footprint at the reuse level, which is the
//     mechanism by which tiling pays off on large-trip-count kernels
//     (PolyBench) and not on small ones — the behaviour Figure 8 reports;
//   - loop fusion: adjacent compatible loops merge, deduplicating shared
//     load streams and amortising loop overhead. Fusion optimizes beyond
//     pure vectorization, which is how Polly can beat even the brute-force
//     VF/IF search on one benchmark (Figure 7, benchmark #10).
//
// The transforms operate on a deep copy; the input program is never
// modified. Vectorization plans remain applicable afterwards because
// innermost point loops keep their original labels.
package polly

import (
	"neurovec/internal/ir"
	"neurovec/internal/machine"
)

// Result is the outcome of running the optimizer over a program.
type Result struct {
	Program *ir.Program
	// Tiled lists the labels of nest roots that were tiled.
	Tiled []string
	// Fused lists pairs of loop labels that were merged (second into first).
	Fused [][2]string
}

// minTileTrip is the smallest trip count worth tiling over.
const minTileTrip = 64

// Optimize runs fusion then tiling over a deep copy of the program.
func Optimize(p *ir.Program, arch *machine.Arch) *Result {
	out := &Result{Program: cloneProgram(p)}
	for _, f := range out.Program.Funcs {
		fuseAdjacent(f, out)
		for i, root := range f.Loops {
			if tiled, ok := tileNest(root, arch); ok {
				f.Loops[i] = tiled
				out.Tiled = append(out.Tiled, root.Label)
			}
		}
	}
	return out
}

// ---- Fusion ----

// fuseAdjacent merges consecutive sibling loops with identical iteration
// spaces when legal, at the function's top level.
func fuseAdjacent(f *ir.Func, res *Result) {
	for i := 0; i+1 < len(f.Loops); {
		a, b := f.Loops[i], f.Loops[i+1]
		if canFuse(a, b) {
			fuse(a, b)
			res.Fused = append(res.Fused, [2]string{a.Label, b.Label})
			f.Loops = append(f.Loops[:i+1], f.Loops[i+2:]...)
			continue // try to fuse the next one into the same loop
		}
		i++
	}
}

// canFuse checks iteration-space equality and a conservative dependence
// condition: every array the pair shares must either be read-only in both
// loops or accessed through identical affine functions (so iteration k of
// the fused loop touches exactly what iteration k of each original did).
func canFuse(a, b *ir.Loop) bool {
	if !a.Innermost() || !b.Innermost() {
		return false
	}
	if !a.TripKnown || !b.TripKnown || a.Trip != b.Trip || a.Step != b.Step {
		return false
	}
	if a.HasCall || b.HasCall {
		return false
	}
	for _, aa := range a.Accesses {
		for _, ba := range b.Accesses {
			if aa.Array != ba.Array {
				continue
			}
			if aa.Kind == ir.Load && ba.Kind == ir.Load {
				continue
			}
			if !aa.Affine || !ba.Affine {
				return false
			}
			if aa.StrideFor(a.Label) != ba.StrideFor(b.Label) || aa.Offset != ba.Offset {
				return false
			}
		}
	}
	return true
}

// fuse merges b's body into a, rewriting b's stride keys to a's label.
func fuse(a, b *ir.Loop) {
	a.Body = append(a.Body, b.Body...)
	for _, acc := range b.Accesses {
		if s, ok := acc.Strides[b.Label]; ok {
			delete(acc.Strides, b.Label)
			acc.Strides[a.Label] += s
		}
		a.Accesses = append(a.Accesses, acc)
	}
	a.Reductions = append(a.Reductions, b.Reductions...)
	a.HasIf = a.HasIf || b.HasIf
	if a.Pragma == nil {
		a.Pragma = b.Pragma
	}
}

// ---- Tiling ----

// tileNest strip-mines every loop of an affine nest into a (block, point)
// pair, producing the loop order [blocks..., points...]. Returns the new
// root and whether tiling was applied.
func tileNest(root *ir.Loop, arch *machine.Arch) (*ir.Loop, bool) {
	chain := nestChain(root)
	if len(chain) < 2 {
		return root, false
	}
	for _, l := range chain {
		if !l.TripKnown || l.Step != 1 || l.HasCall {
			return root, false
		}
		if l.Trip < minTileTrip {
			return root, false
		}
		for _, a := range l.Accesses {
			if !a.Affine {
				return root, false
			}
		}
	}
	if !storesAreTileable(chain) {
		return root, false
	}
	// Profitability gate: tiling pays when (a) the data one outer-loop
	// iteration touches overflows L1 — otherwise reuse is already captured —
	// and (b) some innermost access strides across rows (poor spatial
	// locality that blocking fixes). Unit-stride kernels such as matrix-
	// vector products stream well untiled, and blocking them only adds loop
	// overhead; real Polly's profitability heuristics are similarly
	// locality-driven.
	if innerFootprint(chain) <= arch.L1Bytes {
		return root, false
	}
	inner := chain[len(chain)-1]
	strided := false
	for _, a := range inner.Accesses {
		s := a.StrideFor(inner.Label)
		if s > 1 || s < -1 {
			strided = true
		}
	}
	if !strided {
		return root, false
	}

	tile := tileSize(chain, arch)
	if tile <= 1 {
		return root, false
	}
	for _, l := range chain {
		if l.Trip < 2*tile {
			return root, false // not enough iterations to amortise blocking
		}
	}

	// Build block loops outermost-first, then point loops carrying the
	// original labels, bodies and accesses.
	var top, cur *ir.Loop
	depth := 0
	attach := func(l *ir.Loop) {
		if cur == nil {
			top = l
		} else {
			cur.Children = []*ir.Loop{l}
		}
		l.Depth = depth
		depth++
		cur = l
	}
	for _, l := range chain {
		block := &ir.Loop{
			Label:     l.Label + "b",
			IndexVar:  l.IndexVar + l.IndexVar, // ii, jj, ...
			Trip:      (l.Trip + tile - 1) / tile,
			TripKnown: true,
			Step:      1,
		}
		attach(block)
	}
	for _, l := range chain {
		point := &ir.Loop{
			Label:      l.Label,
			IndexVar:   l.IndexVar,
			Trip:       tile,
			TripKnown:  true,
			Step:       1,
			Body:       l.Body,
			Accesses:   l.Accesses,
			Reductions: l.Reductions,
			Pragma:     l.Pragma,
			HasIf:      l.HasIf,
		}
		// Accesses gain a block-level stride: iterating the block loop
		// advances the index by tile iterations of the original loop.
		for _, a := range point.Accesses {
			for _, m := range chain {
				if s, ok := a.Strides[m.Label]; ok && s != 0 {
					a.Strides[m.Label+"b"] = s * tile
				}
			}
		}
		attach(point)
	}
	return top, true
}

// nestChain returns the straight-line chain of singly-nested loops from
// root to the innermost, or nil if the nest branches.
func nestChain(root *ir.Loop) []*ir.Loop {
	var chain []*ir.Loop
	for l := root; ; {
		chain = append(chain, l)
		if len(l.Children) == 0 {
			return chain
		}
		if len(l.Children) != 1 {
			return nil
		}
		l = l.Children[0]
	}
}

// storesAreTileable requires every stored array in the nest to be accessed
// through a single affine function, the conservative condition under which
// the loop band is fully permutable and blocking is legal.
func storesAreTileable(chain []*ir.Loop) bool {
	type sig struct {
		off int64
		key string
	}
	funcs := map[string]sig{}
	stored := map[string]bool{}
	for _, l := range chain {
		for _, a := range l.Accesses {
			key := sig{a.Offset, strideSig(a)}
			if prev, ok := funcs[a.Array]; ok {
				if prev != key {
					if stored[a.Array] || a.Kind == ir.Store {
						return false
					}
				}
			} else {
				funcs[a.Array] = key
			}
			if a.Kind == ir.Store {
				stored[a.Array] = true
			}
		}
	}
	return true
}

func strideSig(a *ir.Access) string {
	keys := make([]string, 0, len(a.Strides))
	for k, v := range a.Strides {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	// Insertion sort; maps here have at most a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + ":" + itoa(a.Strides[k]) + ";"
	}
	return out
}

func itoa(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [21]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// innerFootprint approximates the bytes the innermost loop's streams touch
// during one iteration of the outermost loop of the band.
func innerFootprint(chain []*ir.Loop) int64 {
	inner := chain[len(chain)-1]
	var total int64
	for _, a := range inner.Accesses {
		span := int64(1)
		for _, lp := range chain[1:] {
			s := a.StrideFor(lp.Label)
			if s < 0 {
				s = -s
			}
			if s == 0 {
				continue
			}
			span += s * (lp.Trip - 1)
		}
		var elems int64 = 1
		for _, d := range a.Dims {
			elems *= d
		}
		if elems > 0 && span > elems {
			span = elems
		}
		total += span * int64(a.Elem.Size())
	}
	return total
}

// tileSize picks a power-of-two tile so one tile's working set sits well
// inside L1: streams * tile * elemSize <= L1/4 per dimension pair.
func tileSize(chain []*ir.Loop, arch *machine.Arch) int64 {
	inner := chain[len(chain)-1]
	streams := len(inner.Accesses)
	if streams == 0 {
		streams = 1
	}
	elem := 4
	for _, a := range inner.Accesses {
		if s := a.Elem.Size(); s > elem {
			elem = s
		}
	}
	budget := arch.L1Bytes / 4
	t := int64(8)
	for t*2*int64(streams)*int64(elem)*t*2 <= budget {
		t *= 2
	}
	if t > 64 {
		t = 64
	}
	return t
}

// ---- Deep copy ----

func cloneProgram(p *ir.Program) *ir.Program {
	out := &ir.Program{Source: p.Source}
	for _, f := range p.Funcs {
		nf := &ir.Func{Name: f.Name, ScalarOps: f.ScalarOps}
		for _, l := range f.Loops {
			nf.Loops = append(nf.Loops, cloneLoop(l))
		}
		out.Funcs = append(out.Funcs, nf)
	}
	return out
}

func cloneLoop(l *ir.Loop) *ir.Loop {
	n := &ir.Loop{
		Label:     l.Label,
		IndexVar:  l.IndexVar,
		Depth:     l.Depth,
		Trip:      l.Trip,
		TripKnown: l.TripKnown,
		Step:      l.Step,
		Pragma:    l.Pragma,
		HasIf:     l.HasIf,
		HasCall:   l.HasCall,
	}
	n.Body = append([]ir.Instr(nil), l.Body...)
	for _, a := range l.Accesses {
		n.Accesses = append(n.Accesses, cloneAccess(a))
	}
	n.Reductions = append([]ir.Reduction(nil), l.Reductions...)
	for _, c := range l.Children {
		n.Children = append(n.Children, cloneLoop(c))
	}
	return n
}

func cloneAccess(a *ir.Access) *ir.Access {
	n := *a
	n.Strides = make(map[string]int64, len(a.Strides))
	for k, v := range a.Strides {
		n.Strides[k] = v
	}
	n.Dims = append([]int64(nil), a.Dims...)
	return &n
}
