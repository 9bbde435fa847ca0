package code2vec

func init() { accumPair = accumPairSSE2 }

// accumPairSSE2 is accum2 with its outputs swept eight at a time by the
// packed SSE2 kernel accum2x8; an OutDim % 8 tail stays in accum2. Each
// XMM lane computes one row's sums, acc + w·x per term in k order, and
// MULPD/ADDPD round every lane exactly as the MULSD/ADDSD the compiler
// emits for accum2 (Go never fuses them into an FMA), so the two agree bit
// for bit. SSE2 is part of the amd64 baseline, so no CPU check is needed.
func accumPairSSE2(a0, a1, x0, x1, w []float64, stride, k0 int, pair []float64) {
	kl := len(x0)
	pair = pair[:2*kl]
	x1 = x1[:kl]
	for k, v := range x0 {
		pair[2*k] = v
		pair[2*k+1] = x1[k]
	}
	out := len(a0)
	o := out &^ 7
	if o > 0 && kl > 0 {
		// accum2x8 indexes without bounds checks; these are its last reads.
		_ = a1[o-1]
		_ = w[(o-1)*stride+k0+kl-1]
		accum2x8(a0[:o], a1, pair, w, stride, k0)
	}
	if o < out {
		accum2(a0[o:], a1[o:out], x0, x1, w[o*stride:], stride, k0)
	}
}

// accum2x8 performs, for every output o < len(a0) (a multiple of 8) and
// k < len(xx)/2 in k order,
//
//	a0[o] += w[o*stride+k0+k] * xx[2k]
//	a1[o] += w[o*stride+k0+k] * xx[2k+1]
//
// It reads a1 and w without bounds checks. Implemented in accum_amd64.s.
//
//go:noescape
func accum2x8(a0, a1, xx, w []float64, stride, k0 int)
