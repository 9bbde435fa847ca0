package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples. A percentile is reported only when at least ten
// samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile with the
// same method as Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		v := math.NaN()
		if len(s) == 1 {
			v = s[0]
		}
		return v, v, v
	}
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the largest live heap any GC marked while it ran,
// read from runtime/metrics every 100 ms.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		for {
			metrics.Read(live)
			if live[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, live[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// stealShare is the share of the machine's vCPU time the hypervisor took
// away between two stealTime readings d apart.
func stealShare(from, to, d time.Duration) float64 {
	return float64(to-from) / float64(time.Duration(runtime.NumCPU())*d)
}

// stealTime is the machine's stolen vCPU time so far, summed over its vCPUs,
// from /proc/stat (in USER_HZ ticks of 10 ms); 0 where it cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM)
// from the current resident set.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: peakRSS still reads the lifetime peak
}

// peakRSS returns VmHWM in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024
		}
	}
	return math.NaN()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
