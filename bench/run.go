package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/evalharness"
)

// Workload names.
const (
	coldSingle = "cold_single"
	editRepeat = "edit_repeat"
	fleetBatch = "fleet_batch"
	corpusEval = "corpus_eval"
)

var workloads = []string{coldSingle, editRepeat, fleetBatch, corpusEval}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured window (untraced) or replay budget (traced)
	trace    bool
	dir      string // work directory for the fixture and span files
	spans    string // traced run: where the spans are written
	fixture  fixtureSpec
	setups   int // untraced: set-ups per run; setup_s is their median
	// warm is the warm-up length in operations: files for the single-file
	// workloads, envelopes for fleet_batch, passes for corpus_eval.
	warm map[string]int
	// sample is the traced run's replay sample, in operations.
	sample map[string]int
	// ndjson is the number of 16-line streams the traced run's probe sends.
	ndjson int
}

// defaultConfig is the configuration BENCHMARK.json's numbers come from.
func defaultConfig() config {
	return config{
		seed:    1,
		window:  30 * time.Second,
		dir:     ".bench_build",
		fixture: prodFixture,
		setups:  3,
		warm:    map[string]int{coldSingle: 256, editRepeat: 1024, fleetBatch: 16, corpusEval: 1},
		sample:  map[string]int{coldSingle: 2000, editRepeat: 2000, fleetBatch: 2000 / batchSize, corpusEval: 5},
		ndjson:  200,
	}
}

// maxSteal is the share of vCPU time the hypervisor may take away during a
// window before the run is flagged as not comparable.
const maxSteal = 0.05

// clients is the closed-loop client count: two callers that each wait for
// their answer, like `make -j2`; corpus evaluation is one caller whose
// harness runs two jobs.
func clients(workload string) int {
	if workload == corpusEval {
		return 1
	}
	return 2
}

// tailQuantile is the tail percentile reported as latency_tail_ms, chosen so
// that at least ten samples lie beyond it even on a machine running at half
// speed: p99 of the single-file requests, p98 of fleet_batch's envelopes,
// p90 of corpus_eval's passes.
func tailQuantile(workload string) float64 {
	switch workload {
	case fleetBatch:
		return 0.98
	case corpusEval:
		return 0.90
	}
	return 0.99
}

// served is one answered file, kept for the quality metrics, the fleet
// byte-identity check, and the traced replay.
type served struct {
	in        input
	loops     []api.Decision
	predicted float64 // NaN when the harness folded scalar work into its cycles
	speedup   float64
	body      []byte // the answer re-encoded without request_id (fleet_batch)
}

func servedFrom(in input, r *api.CompileResponse) served {
	return served{in: in, loops: r.Loops, predicted: r.PredictedCycles, speedup: r.Speedup}
}

// driver sends one workload's operations to its stack.
type driver interface {
	// send performs operation k of the warm-up or the measured stream and
	// checks every answer. It reports the files attempted and failed.
	send(ctx context.Context, k int, warm bool) (files, failed int, err error)
	// sampled returns the first files of the measured stream, in order.
	sampled() []served
	close()
}

// answerer is a serving driver: it can also answer given files outside
// the measured stream.
type answerer interface {
	answer(ctx context.Context, ins []input) ([]served, error)
}

// newDriver boots the workload's stack from the checkpoint on disk; sample
// is how many measured files to keep in order.
func newDriver(cfg config, model string, chk *checker, sample int) (driver, error) {
	switch cfg.workload {
	case coldSingle, editRepeat:
		d := &singleDriver{chk: chk, client: newClient(2), sample: make([]served, sample)}
		if cfg.workload == coldSingle {
			warm, err := newColdStream(cfg.seed, "cold-warm")
			if err != nil {
				return nil, err
			}
			measured, err := newColdStream(cfg.seed, "cold")
			if err != nil {
				return nil, err
			}
			d.warm, d.measured = warm.at, measured.at
		} else {
			warm, err := newEditStream(cfg.seed, "edit-warm")
			if err != nil {
				return nil, err
			}
			measured, err := newEditStream(cfg.seed, "edit")
			if err != nil {
				return nil, err
			}
			d.warm, d.measured = warm.at, measured.at
		}
		var err error
		d.rep, err = startReplica(model)
		return d, err
	case fleetBatch:
		d := &fleetDriver{chk: chk, client: newClient(2), sample: make([]served, sample)}
		var err error
		if d.warm, err = newColdStream(cfg.seed, "fleet-warm"); err != nil {
			return nil, err
		}
		if d.measured, err = newColdStream(cfg.seed, "fleet"); err != nil {
			return nil, err
		}
		d.fs, err = startFleet(model)
		return d, err
	case corpusEval:
		corpus, ins, err := corpusInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		fw, err := loadFramework(model)
		if err != nil {
			return nil, err
		}
		return &evalDriver{fw: fw, corpus: corpus, ins: ins, seed: cfg.seed, chk: chk, sample: make([]served, sample)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// singleDriver posts one file per request to one replica (cold_single,
// edit_repeat).
type singleDriver struct {
	rep            *replica
	client         *http.Client
	warm, measured func(k int) (input, error)
	chk            *checker
	sample         []served
}

func (d *singleDriver) send(ctx context.Context, k int, warm bool) (int, int, error) {
	next := d.measured
	if warm {
		next = d.warm
	}
	in, err := next(k)
	if err == nil {
		var s served
		if s, err = d.post(ctx, in); err == nil && !warm && k < len(d.sample) {
			d.sample[k] = s
		}
	}
	return 1, btoi(err != nil), err
}

// post compiles one file through the replica and checks the answer.
func (d *singleDriver) post(ctx context.Context, in input) (served, error) {
	body, err := json.Marshal(in.request())
	if err != nil {
		return served{}, err
	}
	rp, err := post(ctx, d.client, d.rep.lb.url+"/v2/compile", "application/json", body)
	if err != nil {
		return served{}, err
	}
	if rp.status != http.StatusOK {
		return served{}, fmt.Errorf("%s: status %d: %s", in.File, rp.status, rp.body)
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return served{}, fmt.Errorf("%s: %w", in.File, err)
	}
	if err := d.chk.response(in, &resp); err != nil {
		return served{}, err
	}
	return servedFrom(in, &resp), nil
}

func (d *singleDriver) answer(ctx context.Context, ins []input) ([]served, error) {
	out := make([]served, len(ins))
	for i, in := range ins {
		s, err := d.post(ctx, in)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (d *singleDriver) sampled() []served { return d.sample }
func (d *singleDriver) close()            { d.rep.close() }

// fleetDriver posts 16-file batch envelopes to the router (fleet_batch).
type fleetDriver struct {
	fs             *fleetStack
	client         *http.Client
	warm, measured *coldStream
	chk            *checker
	sample         []served
}

func (d *fleetDriver) send(ctx context.Context, k int, warm bool) (int, int, error) {
	stream := d.measured
	if warm {
		stream = d.warm
	}
	ins, err := stream.batch(k)
	if err != nil {
		return batchSize, batchSize, err
	}
	out, failed, err := d.post(ctx, ins)
	for i, s := range out {
		if idx := k*batchSize + i; !warm && s.body != nil && idx < len(d.sample) {
			d.sample[idx] = s
		}
	}
	return len(ins), failed, err
}

// post compiles one envelope through the router and checks every answer;
// answers that fail their check come back empty.
func (d *fleetDriver) post(ctx context.Context, ins []input) ([]served, int, error) {
	env := api.Batch{Requests: make([]api.CompileRequest, len(ins))}
	for i, in := range ins {
		env.Requests[i] = in.request()
	}
	body, err := json.Marshal(&env)
	if err != nil {
		return nil, len(ins), err
	}
	rp, err := post(ctx, d.client, d.fs.lb.url+"/v2/compile", "application/json", body)
	if err != nil {
		return nil, len(ins), err
	}
	if rp.status != http.StatusOK {
		return nil, len(ins), fmt.Errorf("batch: status %d: %s", rp.status, rp.body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil || len(resp.Responses) != len(ins) {
		return nil, len(ins), fmt.Errorf("batch: %d responses for %d requests (%v)", len(resp.Responses), len(ins), err)
	}
	out := make([]served, len(ins))
	failed := 0
	var first error
	for i := range resp.Responses {
		r := &resp.Responses[i]
		err := d.chk.response(ins[i], r)
		if err == nil && r.RequestID == "" {
			err = fmt.Errorf("%s: no request_id", ins[i].File)
		}
		if err == nil {
			r.RequestID = ""
			out[i] = servedFrom(ins[i], r)
			out[i].body, err = json.Marshal(r)
		}
		if err != nil {
			failed++
			first = cmp.Or(first, err)
		}
	}
	return out, failed, first
}

func (d *fleetDriver) answer(ctx context.Context, ins []input) ([]served, error) {
	var out []served
	for lo := 0; lo < len(ins); lo += batchSize {
		got, _, err := d.post(ctx, ins[lo:min(lo+batchSize, len(ins))])
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

func (d *fleetDriver) sampled() []served { return d.sample }
func (d *fleetDriver) close()            { d.fs.close() }

// identity re-sends the sampled files, single-form, straight to one replica
// and requires the router's batch answers to be byte-identical.
func (d *fleetDriver) identity(ctx context.Context) (checked, failed int) {
	for _, s := range d.sample {
		if s.body == nil {
			break
		}
		checked++
		body, err := json.Marshal(s.in.request())
		if err != nil {
			failed++
			continue
		}
		rp, err := post(ctx, d.client, d.fs.replicas[0].lb.url+"/v2/compile", "application/json", body)
		if err == nil && !bytes.Equal(rp.body, s.body) {
			err = fmt.Errorf("%s: router answer differs from the replica's", s.in.File)
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "fleet identity:", err)
		}
	}
	return checked, failed
}

// evalDriver runs full corpus evaluations, one fresh Harness per pass
// (corpus_eval).
type evalDriver struct {
	fw     *core.Framework
	corpus *evalharness.Corpus
	ins    []input
	seed   int64
	chk    *checker
	sample []served
	// ref is the first pass's report without its timing block; every later
	// pass must render byte-identical.
	ref  []byte
	last *evalharness.Report
}

func (d *evalDriver) send(ctx context.Context, k int, warm bool) (int, int, error) {
	n := len(d.ins)
	rep, err := evalharness.New(d.fw).Run(ctx, d.corpus, evalharness.Options{
		Policy: "rl", Baseline: "costmodel", Oracle: "brute", Jobs: 2, Seed: d.seed,
	})
	if err != nil {
		return n, n, err
	}
	if err := d.chk.report(rep, d.ins); err != nil {
		return n, n, err
	}
	var b bytes.Buffer
	if err := rep.WriteJSON(&b, false); err != nil {
		return n, n, err
	}
	if d.ref == nil {
		d.ref = b.Bytes()
	} else if !bytes.Equal(d.ref, b.Bytes()) {
		return n, n, fmt.Errorf("eval pass %d: report differs from the first pass", k)
	}
	d.last = rep
	for i, f := range rep.Files {
		if idx := k*n + i; !warm && idx < len(d.sample) {
			pred := math.NaN()
			if d.ins[i].ScalarWorkFactor == 0 {
				pred = f.PolicyCycles
			}
			d.sample[idx] = served{in: d.ins[i], loops: f.Decisions, predicted: pred, speedup: f.Speedup}
		}
	}
	return n, 0, nil
}

func (d *evalDriver) sampled() []served { return d.sample }
func (d *evalDriver) close()            {}

// corpusQuality is the harness's quality on the shipped suites of the
// corpus: the geometric-mean speedup of rl over costmodel and its mean
// regret against brute. The generated suite is left out so that the numbers
// do not depend on the workload seed.
func corpusQuality(rep *evalharness.Report) (geo, regret float64, n int) {
	var logSum float64
	for _, f := range rep.Files {
		if f.Suite == evalharness.SuiteGenerated {
			continue
		}
		logSum += math.Log(f.Speedup)
		regret += f.Regret
		n++
	}
	return math.Exp(logSum / float64(n)), regret / float64(n), n
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lats          []time.Duration // one per operation
	files, failed int
	elapsed       time.Duration
}

// closedLoop runs the given number of clients, each sending the next
// operation as soon as its previous one is answered, until n operations
// were sent (n > 0) or the deadline passed. Operations are numbered from 0
// in the order they are sent. Each operation holds gate's read lock, so
// whoever takes its write lock pauses the loop; gate may be nil.
func closedLoop(ctx context.Context, d driver, clients, n int, until time.Time, warm bool, gate *sync.RWMutex) loopStats {
	if gate == nil {
		gate = new(sync.RWMutex)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	start := time.Now()
	var logged int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			files, failed := 0, 0
			for ctx.Err() == nil {
				if n <= 0 && !time.Now().Before(until) {
					break
				}
				k := int(next.Add(1)) - 1
				if n > 0 && k >= n {
					break
				}
				gate.RLock()
				t0 := time.Now()
				f, bad, err := d.send(ctx, k, warm)
				lats = append(lats, time.Since(t0))
				gate.RUnlock()
				files += f
				failed += bad
				if err != nil {
					mu.Lock()
					if logged < 5 {
						fmt.Fprintln(os.Stderr, "answer check:", err)
					}
					logged++
					mu.Unlock()
				}
			}
			mu.Lock()
			st.lats = append(st.lats, lats...)
			st.files += files
			st.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// probeEvery is how often the measured loop pauses for the calibration
// kernel. Four times a second, the mean speed over a 30 s window came within
// 3–6% over ten seeds, against 6–9% once a second.
const probeEvery = 250 * time.Millisecond

// measureWindow runs the measured loop for the window. Before it, after it
// and every probeEvery in between, it pauses the loop and times the
// calibration kernel in the prober. It returns the loop's stats with the
// pauses taken out of the elapsed time, and the machine's speed: the mean,
// over the measurements, of the kernel's reference time over its time.
func measureWindow(ctx context.Context, d driver, cfg config, p *prober) (loopStats, float64, error) {
	var speeds []float64
	probe := func() error {
		t, err := p.measure()
		if err == nil {
			speeds = append(speeds, float64(refProbe)/float64(t))
		}
		return err
	}
	if err := probe(); err != nil {
		return loopStats{}, 0, err
	}
	var gate sync.RWMutex
	var paused time.Duration
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-tick.C:
			}
			gate.Lock()
			t0 := time.Now()
			err := probe()
			paused += time.Since(t0)
			gate.Unlock()
			if err != nil {
				done <- err
				return
			}
		}
	}()
	w := closedLoop(ctx, d, clients(cfg.workload), 0, time.Now().Add(cfg.window), false, &gate)
	close(stop)
	if err := <-done; err != nil {
		return w, 0, err
	}
	if err := probe(); err != nil {
		return w, 0, err
	}
	w.elapsed -= paused
	var sum float64
	for _, s := range speeds {
		sum += s
	}
	return w, sum / float64(len(speeds)), nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, cfg config) (*result, error) {
	model, _, err := fixture(ctx, cfg.dir, cfg.fixture, false)
	if err != nil {
		return nil, err
	}
	ref, err := loadFramework(model)
	if err != nil {
		return nil, err
	}
	chk := newChecker(ref)
	res := newResult()
	p, err := startProber()
	if err != nil {
		return nil, err
	}
	defer p.close()

	// Set up several times and keep the last stack: setup_s is the median
	// time from the checkpoint on disk to the end of the warm-up.
	heap := sampleHeap()
	var setupS []float64
	var d driver
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		sample := 0
		if cfg.workload == fleetBatch {
			sample = 4 * batchSize // answers byte-compared with a single replica
		}
		if d, err = newDriver(cfg, model, chk, sample); err != nil {
			heap.finish()
			return nil, err
		}
		w := closedLoop(ctx, d, clients(cfg.workload), cfg.warm[cfg.workload], time.Time{}, true, nil)
		setupS = append(setupS, time.Since(start).Seconds())
		res.count(w.files, w.failed)
		if i < cfg.setups-1 {
			d.close()
			runtime.GC()
		}
	}
	defer d.close()

	steal0, cpu0, wall0 := stealTime(), cpuTime(), time.Now()
	w, speed, err := measureWindow(ctx, d, cfg, p)
	cpu, stolen := cpuTime()-cpu0, stealShare(steal0, stealTime(), time.Since(wall0))
	peakHeap := heap.finish()
	res.count(w.files, w.failed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every time is at the reference speed: a duration measured while the
	// machine ran at speed s counts s times as much.
	res.set("setup_s", median(setupS)*speed, "s", len(setupS))
	raw := float64(w.files) / w.elapsed.Seconds()
	res.set("files_per_s", raw/speed, "files/s", w.files)
	res.set("cpu_ms_per_file", cpu.Seconds()*1000/float64(w.files)*speed, "ms", w.files)
	res.notes["files_per_s"] = fmt.Sprintf("raw %.6g; machine at %.0f%% of reference speed", raw, 100*speed)
	// The hypervisor taking the vCPUs away is not corrected for: such a run
	// is flagged.
	if stolen > maxSteal {
		res.notes["files_per_s"] += fmt.Sprintf("; %.0f%% of vCPU time stolen", 100*stolen)
		fmt.Fprintf(os.Stderr, "warning: the hypervisor took %.0f%% of the vCPU time during the window; its times are not comparable\n", 100*stolen)
	}
	ms := make([]float64, len(w.lats))
	for i, lat := range w.lats {
		ms[i] = float64(lat) / float64(time.Millisecond) * speed
	}
	q := tailQuantile(cfg.workload)
	res.set("latency_p50_ms", percentile(ms, 0.5), "ms", len(ms))
	res.set("latency_tail_ms", percentile(ms, q), "ms", len(ms))
	res.notes["latency_tail_ms"] = fmt.Sprintf("p%g, %d samples beyond", 100*q, beyond(len(ms), q))
	if beyond(len(ms), q) < 10 {
		fmt.Fprintf(os.Stderr, "warning: latency_tail_ms has %d samples beyond p%g; lengthen the window\n", beyond(len(ms), q), 100*q)
	}
	res.set("peak_heap_mb", float64(peakHeap)/(1<<20), "MB", 1)

	if ed, ok := d.(*evalDriver); ok {
		geo, regret, n := corpusQuality(ed.last)
		res.set("speedup_geomean", geo, "x", n)
		res.set("oracle_regret", regret, "ratio", n)
		return res, nil
	}
	if fd, ok := d.(*fleetDriver); ok {
		checked, failed := fd.identity(ctx)
		res.count(0, failed)
		res.notes["files_per_s"] += fmt.Sprintf("; %d answers byte-compared with a single replica", checked)
	}
	// The quality metrics are taken on the shipped kernels, answered by the
	// measured stack after the window, so that they do not depend on the seed.
	kernels, err := shipped()
	if err != nil {
		return nil, err
	}
	answers, err := d.(answerer).answer(ctx, kernels)
	if err != nil {
		return nil, err
	}
	geo, regret, n, err := quality(ctx, ref, answers)
	if err != nil {
		return nil, err
	}
	res.set("speedup_geomean", geo, "x", n)
	res.set("oracle_regret", regret, "ratio", n)
	return res, nil
}

// quality scores served answers: the geometric-mean speedup the served
// decisions predict over the baseline cost model, and their mean regret
// against the brute-force oracle, run by the benchmark itself on the same
// source.
func quality(ctx context.Context, fw *core.Framework, files []served) (geo, regret float64, n int, err error) {
	var logSum, regSum float64
	for _, s := range files {
		oracle, err := fw.PredictLoops(ctx, s.in.Source, s.in.Params, core.WithPolicyName("brute"), core.WithSourceName(s.in.File))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("quality: brute on %s: %w", s.in.File, err)
		}
		logSum += math.Log(s.speedup)
		regSum += s.predicted/oracle.PredictedCycles - 1
	}
	n = len(files)
	return math.Exp(logSum / float64(n)), regSum / float64(n), n, nil
}
