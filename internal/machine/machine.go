// Package machine describes the target architecture the simulator models and
// the vectorization decision space it induces.
//
// The default model is an AVX2-class Intel core resembling the i7-8559U used
// in the paper: 256-bit vectors, 4-wide issue, two load ports and one store
// port, 16 vector registers, and a three-level cache hierarchy. The
// vectorization factor and interleaving factor spaces are powers of two up to
// MAX_VF=64 and MAX_IF=16, giving the 7x5 = 35 combinations visible in the
// paper's Figure 1.
package machine

import (
	"neurovec/internal/ir"
	"neurovec/internal/lang"
)

// Arch describes a target microarchitecture.
type Arch struct {
	Name string

	// VectorBits is the physical SIMD register width.
	VectorBits int
	// PreferredBits is the vector width the baseline cost model assumes.
	// LLVM's default cost model is famously conservative and often reasons
	// about 128-bit vectors even on wider machines; this conservatism is one
	// of the structural reasons the learned policy beats it.
	PreferredBits int

	// MaxVF and MaxIF bound the pragma decision space (powers of two).
	MaxVF int
	MaxIF int

	// Core parameters.
	IssueWidth int // uops issued per cycle
	LoadPorts  int
	StorePorts int
	VecRegs    int // architectural vector registers

	// Cache hierarchy.
	LineBytes int64
	L1Bytes   int64
	L2Bytes   int64
	L3Bytes   int64
	// Per-line access latencies in cycles.
	L1Lat  float64
	L2Lat  float64
	L3Lat  float64
	MemLat float64
	// Sustained streaming bandwidth from DRAM, bytes per cycle.
	StreamBytesPerCycle float64

	// GatherLaneCost is the per-lane cost (in uops) of a strided or
	// non-affine vector memory access, modelling gather/scatter or
	// scalarized element insertion.
	GatherLaneCost float64

	// BranchMissCycles is the penalty of a mispredicted branch; scalar loops
	// with data-dependent if bodies pay a fraction of this per iteration.
	BranchMissCycles float64

	// FreqGHz converts cycles to seconds for reporting.
	FreqGHz float64
}

// IntelAVX2 returns the default architecture model: an AVX2-class core tuned
// to resemble the 2.7 GHz i7-8559U with 2133 MHz LPDDR3 from the paper's
// evaluation setup.
func IntelAVX2() *Arch {
	return &Arch{
		Name:                "intel-avx2",
		VectorBits:          256,
		PreferredBits:       128,
		MaxVF:               64,
		MaxIF:               16,
		IssueWidth:          4,
		LoadPorts:           2,
		StorePorts:          1,
		VecRegs:             16,
		LineBytes:           64,
		L1Bytes:             32 << 10,
		L2Bytes:             256 << 10,
		L3Bytes:             8 << 20,
		L1Lat:               0.5,
		L2Lat:               4,
		L3Lat:               12,
		MemLat:              42,
		StreamBytesPerCycle: 8,
		GatherLaneCost:      0.9,
		BranchMissCycles:    14,
		FreqGHz:             2.7,
	}
}

// VFs returns the vectorization-factor action space: powers of two from 1 to
// MaxVF inclusive.
func (a *Arch) VFs() []int { return powersOfTwo(a.MaxVF) }

// IFs returns the interleaving-factor action space: powers of two from 1 to
// MaxIF inclusive.
func (a *Arch) IFs() []int { return powersOfTwo(a.MaxIF) }

func powersOfTwo(max int) []int {
	var out []int
	for v := 1; v <= max; v *= 2 {
		out = append(out, v)
	}
	return out
}

// RegsPerVector returns how many physical vector registers one logical
// vector of VF elements of type t occupies (the widening/legalization
// factor). VF=8 of int32 on a 256-bit machine is exactly one register;
// VF=64 of int32 is eight.
func (a *Arch) RegsPerVector(vf int, t lang.ScalarType) int {
	bits := vf * t.Bits()
	n := (bits + a.VectorBits - 1) / a.VectorBits
	if n < 1 {
		n = 1
	}
	return n
}

// OpLatency returns the dependent-use latency in cycles for an operation on
// the given element type. Values follow Agner-Fog-style tables for a Skylake
// class core, coarsened.
func OpLatency(op ir.Op, t lang.ScalarType) float64 {
	fl := t.IsFloat()
	switch op {
	case ir.OpAdd, ir.OpSub:
		if fl {
			return 4
		}
		return 1
	case ir.OpMul:
		if fl {
			return 4
		}
		return 5 // integer vector multiply is slow
	case ir.OpDiv:
		if fl {
			return 14
		}
		return 24
	case ir.OpRem:
		return 26
	case ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpNeg:
		return 1
	case ir.OpCmp:
		return 1
	case ir.OpSelect:
		return 1
	case ir.OpConvert:
		return 3
	case ir.OpMin, ir.OpMax:
		if fl {
			return 4
		}
		return 1
	case ir.OpAbs:
		return 1
	case ir.OpCopy:
		return 0.5
	case ir.OpCall:
		return 30
	}
	return 1
}

// OpThroughput returns the reciprocal throughput in uops per vector register
// of work (1 = one uop per physical vector op).
func OpThroughput(op ir.Op, t lang.ScalarType) float64 {
	fl := t.IsFloat()
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot,
		ir.OpNeg, ir.OpCmp, ir.OpSelect, ir.OpMin, ir.OpMax, ir.OpAbs:
		return 1
	case ir.OpMul:
		if fl {
			return 1
		}
		return 1.5
	case ir.OpDiv:
		if fl {
			return 8
		}
		return 16
	case ir.OpRem:
		return 18
	case ir.OpShl, ir.OpShr:
		return 1
	case ir.OpConvert:
		return 1.5
	case ir.OpCopy:
		return 0.35
	case ir.OpCall:
		return 30
	}
	return 1
}
