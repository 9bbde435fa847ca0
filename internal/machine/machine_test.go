package machine

import (
	"testing"
	"testing/quick"

	"neurovec/internal/ir"
	"neurovec/internal/lang"
)

func TestActionSpaceIs35Combinations(t *testing.T) {
	a := IntelAVX2()
	vfs, ifs := a.VFs(), a.IFs()
	if len(vfs) != 7 {
		t.Errorf("VFs = %v, want 7 values 1..64", vfs)
	}
	if len(ifs) != 5 {
		t.Errorf("IFs = %v, want 5 values 1..16", ifs)
	}
	if len(vfs)*len(ifs) != 35 {
		t.Errorf("combinations = %d, want 35 (paper Figure 1)", len(vfs)*len(ifs))
	}
	if vfs[0] != 1 || vfs[len(vfs)-1] != 64 {
		t.Errorf("VF range = %v", vfs)
	}
	if ifs[0] != 1 || ifs[len(ifs)-1] != 16 {
		t.Errorf("IF range = %v", ifs)
	}
}

func TestRegsPerVector(t *testing.T) {
	a := IntelAVX2()
	cases := []struct {
		vf   int
		tpe  lang.ScalarType
		want int
	}{
		{8, lang.TypeInt, 1},    // 256 bits exactly
		{4, lang.TypeInt, 1},    // half a register still costs one
		{16, lang.TypeInt, 2},   // 512 bits -> 2 registers
		{64, lang.TypeInt, 8},   // widening by 8
		{64, lang.TypeChar, 2},  // 512 bits of bytes
		{4, lang.TypeDouble, 1}, // 256 bits
		{64, lang.TypeDouble, 16},
		{1, lang.TypeChar, 1},
	}
	for _, c := range cases {
		if got := a.RegsPerVector(c.vf, c.tpe); got != c.want {
			t.Errorf("RegsPerVector(%d, %s) = %d, want %d", c.vf, c.tpe, got, c.want)
		}
	}
}

func TestRegsPerVectorMonotoneProperty(t *testing.T) {
	a := IntelAVX2()
	types := []lang.ScalarType{lang.TypeChar, lang.TypeShort, lang.TypeInt, lang.TypeLong, lang.TypeFloat, lang.TypeDouble}
	f := func(v uint8, ti uint8) bool {
		vf := 1 << (v % 7)
		tp := types[int(ti)%len(types)]
		r1 := a.RegsPerVector(vf, tp)
		r2 := a.RegsPerVector(vf*2, tp)
		return r1 >= 1 && r2 >= r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyTablesSane(t *testing.T) {
	// Floating add slower than integer add; div slowest of all.
	if machine := OpLatency(ir.OpAdd, lang.TypeFloat); machine <= OpLatency(ir.OpAdd, lang.TypeInt) {
		t.Error("float add should have higher latency than int add")
	}
	for _, tp := range []lang.ScalarType{lang.TypeInt, lang.TypeFloat} {
		if OpLatency(ir.OpDiv, tp) <= OpLatency(ir.OpMul, tp) {
			t.Errorf("div latency should exceed mul for %s", tp)
		}
	}
	// Every op has positive latency and throughput.
	for op := ir.OpAdd; op <= ir.OpCall; op++ {
		if OpLatency(op, lang.TypeInt) <= 0 {
			t.Errorf("latency(%s) <= 0", op)
		}
		if OpThroughput(op, lang.TypeInt) <= 0 {
			t.Errorf("throughput(%s) <= 0", op)
		}
	}
}

func TestLanesPerLine(t *testing.T) {
	a := IntelAVX2()
	if got := a.LineBytes / int64(lang.TypeInt.Size()); got != 16 {
		t.Errorf("int lanes per 64B line = %d, want 16", got)
	}
	if got := a.LineBytes / int64(lang.TypeDouble.Size()); got != 8 {
		t.Errorf("double lanes per line = %d, want 8", got)
	}
}

func TestCacheHierarchyOrdered(t *testing.T) {
	a := IntelAVX2()
	if !(a.L1Bytes < a.L2Bytes && a.L2Bytes < a.L3Bytes) {
		t.Error("cache sizes not increasing")
	}
	if !(a.L1Lat < a.L2Lat && a.L2Lat < a.L3Lat && a.L3Lat < a.MemLat) {
		t.Error("cache latencies not increasing")
	}
}
