package code2vec

// init installs the widest kernels the CPU has: AVX-512 for accum and axpy
// above AVX, and AVX for tanhInPlace, whose VDIVPD-bound blocks stay
// four-wide.
func init() {
	if hasAVX() {
		accum = accumAVX
		tanhInPlace = tanhAVX
		axpy = axpyAVX
	}
	if hasAVX512() {
		accum = accumAVX512
		axpy = axpyAVX512
	}
}

// hasAVX reports whether the CPU has AVX (CPUID leaf 1) and the operating
// system saves the YMM registers across context switches (OSXSAVE, then
// XCR0's SSE and AVX state bits).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	eax, _ := xgetbv()
	return eax&6 == 6
}

// hasAVX512 reports whether the CPU has AVX-512F (CPUID leaf 7, sub-leaf 0,
// EBX bit 16) and the operating system saves the ZMM registers and the
// opmask registers (XCR0's SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM bits).
func hasAVX512() bool {
	if !hasAVX() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const avx512f = 1 << 16
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&0xe6 == 0xe6
}

// accumAVX is accumGo with the rows, once startRows has copied the
// parents' sums, swept four at a time by the AVX kernel
// accum4x8, eight outputs per block; an OutDim % 8 tail goes through accum1
// row by row. A last block of one to three rows is padded with copies of
// its last row: a copy loads the same sums and inputs as the row it
// copies, so every lane that stores to that row stores the same bits.
// Each YMM lane computes one row's sums, acc + w·x per term in k order,
// and VMULPD/VADDPD round every lane exactly as the MULSD/ADDSD the
// compiler emits for accum1 and accum2 (it fuses no multiply-add into an
// FMA unless the source calls math.FMA), so the kernels agree bit for bit.
func accumAVX(acc []float64, from []int, table []float64, rows []uint32, d int, w []float64, stride, k0 int, lanes []float64) {
	n := len(rows)
	if n == 0 {
		return
	}
	out := len(acc) / n
	startRows(acc, from, out)
	o8 := out &^ 7
	quad := lanes[:4*d]
	var a [4][]float64
	for i := 0; i < n; i += 4 {
		for j := range a {
			r := min(i+j, n-1)
			a[j] = acc[r*out:][:out]
			for k, v := range table[int(rows[r])*d:][:d] {
				quad[4*k+j] = v
			}
		}
		if o8 > 0 && d > 0 {
			// accum4x8 indexes without bounds checks; this is its last read of W.
			_ = w[(o8-1)*stride+k0+d-1]
			accum4x8(a[0][:o8], a[1], a[2], a[3], quad, w, stride, k0)
		}
		if o8 < out {
			for r := i; r < min(i+4, n); r++ {
				accum1(acc[r*out+o8:(r+1)*out], table[int(rows[r])*d:][:d], w[o8*stride:], stride, k0)
			}
		}
	}
}

// accum4x8 performs, for every output o < len(a0) (a multiple of 8) and
// k < len(xx)/4 in k order,
//
//	aj[o] += w[o*stride+k0+k] * xx[4k+j]   for j = 0 .. 3
//
// It reads a1, a2, a3 and w without bounds checks. Implemented in
// accum_amd64.s; it needs AVX.
//
//go:noescape
func accum4x8(a0, a1, a2, a3, xx, w []float64, stride, k0 int)

// accumAVX512 is accumGo with the rows swept eight at a time by the
// AVX-512 kernel accum8, one ZMM lane per row. A lane loads its row's
// starting sums from the parent row and stores them to its own row, so no
// row is copied; the blocks run from the last down, and a block loads all
// its sums before it stores any, so no parent row is overwritten before
// its last reader. A last block of one to seven rows is padded with copies
// of its last row, as accumAVX pads its blocks. accum8 runs every output,
// the OutDim % 8 tail included, so accum1 never runs here; fewer than
// eight outputs, which only test shapes have, go through accumGo. Each lane
// computes one row's sums, acc + w·x per term in k order, with a VMULPD and
// then a VADDPD (no FMA), and so rounds every term as accum1 and accum2 do.
func accumAVX512(acc []float64, from []int, table []float64, rows []uint32, d int, w []float64, stride, k0 int, lanes []float64) {
	n := len(rows)
	if n == 0 || d == 0 {
		return
	}
	out := len(acc) / n
	if out < 8 {
		accumGo(acc, from, table, rows, d, w, stride, k0, lanes)
		return
	}
	lanes = lanes[:8*d]
	// accum8 indexes without bounds checks; these are its last reads of acc and W.
	_ = acc[n*out-1]
	_ = w[(out-1)*stride+k0+d-1]
	var src, dst [8]int // each lane's parent row and own row, in elements of acc
	for i := (n - 1) &^ 7; i >= 0; i -= 8 {
		for j := range dst {
			r := min(i+j, n-1)
			p := r
			if from != nil {
				p = from[r]
			}
			if uint(p) > uint(r) {
				panic("code2vec: accum parent row after its child")
			}
			src[j], dst[j] = p*out, r*out
			for k, v := range table[int(rows[r])*d:][:d] {
				lanes[8*k+j] = v
			}
		}
		accum8(acc, &src, &dst, out, lanes, w, stride, k0)
	}
}

// accum8 performs, for every output o < out,
//
//	acc[dst[j]+o] = acc[src[j]+o] + w[o*stride+k0+k] * xx[8k+j]   for j = 0 .. 7
//
// adding the terms for k < len(xx)/8 in k order, and loads every lane's
// sums for an output before it stores any. It needs out >= 8, and reads
// acc and w without bounds checks. Implemented in accum_amd64.s; it needs
// AVX-512F.
//
//go:noescape
func accum8(acc []float64, src, dst *[8]int, out int, xx, w []float64, stride, k0 int)

// tanhAVX is tanhGo with the blocks of four that tanhBlocks accepts
// computed by the AVX kernel. tanhBlocks copies math.tanh's branch for
// 0 < |x| < 0.625 operation for operation, VMULPD/VADDPD/VDIVPD for
// MULSD/ADDSD/DIVSD, so it returns math.Tanh's bits; a block it refuses,
// with a ±0, a NaN or a lane that takes math.tanh's Exp or saturation
// branch, and the len(x) % 4 tail go through math.Tanh.
func tanhAVX(x []float64) {
	for len(x) > 0 {
		x = x[tanhBlocks(x):]
		n := min(len(x), 4)
		tanhGo(x[:n])
		x = x[n:]
	}
}

// tanhBlocks applies math.tanh's rational branch to x four elements at a
// time, from x[0] up to the first block of four with a lane outside
// 0 < |x| < 0.625 or the last whole block, and returns how many elements
// it replaced. Implemented in accum_amd64.s; it needs AVX.
//
//go:noescape
func tanhBlocks(x []float64) int

// axpyAVX is axpyGo through the AVX kernel axpy4.
func axpyAVX(a float64, x, y []float64) {
	axpy4(a, x, y[:len(x)])
}

// axpy4 performs y[k] += a*x[k] for k < len(x), as axpyGo rounds it. It
// reads y without bounds checks. Implemented in accum_amd64.s; it needs
// AVX.
//
//go:noescape
func axpy4(a float64, x, y []float64)

// axpyAVX512 is axpyGo through the AVX-512 kernel axpy8.
func axpyAVX512(a float64, x, y []float64) {
	axpy8(a, x, y[:len(x)])
}

// axpy8 performs y[k] += a*x[k] for k < len(x), as axpyGo rounds it. It
// reads y without bounds checks. Implemented in accum_amd64.s; it needs
// AVX-512F.
//
//go:noescape
func axpy8(a float64, x, y []float64)

// cpuid executes CPUID with EAX=leaf and ECX=sub. Implemented in
// accum_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0; call it only when CPUID
// reports OSXSAVE. Implemented in accum_amd64.s.
func xgetbv() (eax, edx uint32)
