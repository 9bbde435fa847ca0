package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark shares its machine with other tenants. They slow it down by
// up to half for minutes at a time, mostly without any steal time
// showing in the guest: when both vCPUs are busy, each gets between half
// and nine tenths of what one gets alone, varying from second to second.
// Raw times of two sets of runs of one build then differ by more than any
// usable bound. The end-to-end times are therefore reported at a reference
// speed: each is multiplied by the machine's mean speed during the window,
// measured as the reference time of a fixed calibration kernel over the
// time it took.
//
// The kernel runs in a child process, and only while the measured loop is
// paused: it shares no heap, no garbage collector and no CPU time with the
// program under test, so no change to the program can move it. It runs on
// every vCPU at once, as the workloads do.

// probeEnv, when set, makes the benchmark binary the calibration child.
const probeEnv = "NEUROVEC_BENCH_PROBE"

// refProbe is the calibration kernel's reference time: about its time on
// an idle 2-vCPU Intel Xeon VM. probeFor is how long one measurement runs
// it.
const (
	refProbe = 180 * time.Microsecond
	probeFor = 10 * time.Millisecond
)

// prober is the calibration child: each newline written to it runs one
// measurement and reads back the kernel's time in nanoseconds.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startProber() (*prober, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// measure runs one measurement in the child.
func (p *prober) measure() (time.Duration, error) {
	if _, err := p.in.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return time.Duration(ns), err
}

// close ends the child and waits for it to exit.
func (p *prober) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// probeMain is the calibration child's main loop: one measurement per line
// read, until its input closes.
func probeMain() {
	ks := make([]*kernel, runtime.NumCPU())
	for i := range ks {
		ks[i] = newKernel()
	}
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		fmt.Println(int64(measureKernels(ks)))
	}
}

// measureKernels runs each kernel on its own goroutine, one per vCPU, in a
// loop for probeFor (at least once), and returns the mean time of one
// iteration on one vCPU.
func measureKernels(ks []*kernel) time.Duration {
	iters := make([]int, len(ks))
	start := time.Now()
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := start.Add(probeFor); iters[i] == 0 || time.Now().Before(end); iters[i]++ {
				k.json()
				k.matVec()
				k.lookup()
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range iters {
		total += n
	}
	return time.Since(start) * time.Duration(len(ks)) / time.Duration(total)
}

// kernel is one vCPU's share of the calibration kernel: JSON encoding and
// decoding, a float64 matrix-vector product, and pseudo-random reads and
// writes over a 1 MiB table, the kinds of work the workloads do, which
// other tenants slow down by different amounts. Only the child builds one.
type kernel struct {
	doc   []probeRecord
	a, x  []float64 // a 340x128 matrix and a vector
	table []uint32  // 1 MiB
	sink  float64   // keeps the results live
}

type probeRecord struct {
	Name   string
	Values []float64
	Tags   map[string]int
}

func newKernel() *kernel {
	k := &kernel{doc: make([]probeRecord, 12), a: make([]float64, 340*128), x: make([]float64, 128), table: make([]uint32, 1<<18)}
	for i := range k.doc {
		k.doc[i] = probeRecord{Name: fmt.Sprintf("record-%03d", i), Values: make([]float64, 8), Tags: map[string]int{}}
		for j := range k.doc[i].Values {
			k.doc[i].Values[j] = float64(i*j) / 7
			k.doc[i].Tags[fmt.Sprintf("t%d", j)] = i + j
		}
	}
	for i := range k.a {
		k.a[i] = float64(i%97) / 97
	}
	return k
}

func (k *kernel) json() {
	b, err := json.Marshal(k.doc)
	if err != nil {
		panic(err) // a fixed, encodable document
	}
	var back []probeRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	k.sink += back[len(back)-1].Values[1]
}

func (k *kernel) matVec() {
	for i := 0; i < 340; i++ {
		var acc float64
		for j, v := range k.a[i*128 : (i+1)*128] {
			acc += v * k.x[j]
		}
		k.x[i%128] = math.Tanh(acc + 0.5)
	}
	k.sink += k.x[0]
}

func (k *kernel) lookup() {
	x, sum := uint32(2463534242), uint32(0)
	for i := 0; i < 16384; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		sum += k.table[x&(1<<18-1)]
		k.table[(x>>7)&(1<<18-1)] = sum
	}
	k.sink += float64(sum)
}
