package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/code2vec"
	"neurovec/internal/core"
	"neurovec/internal/costmodel"
	"neurovec/internal/extractor"
	"neurovec/internal/ir"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
	"neurovec/internal/lower"
	"neurovec/internal/policy"
	"neurovec/internal/service"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// span is one timed call the benchmark made into a layer. Spans of one
// replayed file share File; Parent indexes the enclosing span (-1 for the
// file's root).
type span struct {
	Name   string `json:"name"`
	File   int    `json:"file"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// It belongs to the single replay goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, file, parent int) int {
	t.spans = append(t.spans, span{Name: name, File: file, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns every span's duration minus the part of it its child
// spans cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// stageSpans are the layer calls the replay times, in pipeline order. The
// per-loop stages run once per innermost loop.
var stageSpans = []string{
	"lang.parse", "sema.check", "extractor.loops", "api.loop_ids", "lower.program", "costmodel.plans", "sim.baseline",
	"code2vec.extract", "code2vec.forward", "rl.decide", "vectorizer.plan", "sim.loop",
	"sim.combined", "extractor.annotate", "api.decode", "api.encode", "policy.brute_decide",
}

// loopCache is an unbounded core.LoopCache standing in for the service's
// per-loop caches when the benchmark calls PredictLoops itself.
type loopCache struct {
	mu        sync.Mutex
	decisions map[string][2]int
	embeds    map[string][]float64
}

func newLoopCache() *loopCache {
	return &loopCache{decisions: map[string][2]int{}, embeds: map[string][]float64{}}
}

func (c *loopCache) GetDecision(key string) (int, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[key]
	return d[0], d[1], ok
}

func (c *loopCache) PutDecision(key string, vf, ifc int) {
	c.mu.Lock()
	c.decisions[key] = [2]int{vf, ifc}
	c.mu.Unlock()
}

func (c *loopCache) GetEmbed(key string) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.embeds[key]
	return append([]float64(nil), v...), ok
}

func (c *loopCache) PutEmbed(key string, vec []float64) {
	c.mu.Lock()
	c.embeds[key] = append([]float64(nil), vec...)
	c.mu.Unlock()
}

// replayer sends each sampled file through the measurement stacks and then
// replays it stage by stage through each layer's public functions.
type replayer struct {
	tr     tracer
	chk    *checker
	client *http.Client

	// The measurement stacks; each sees every sampled file exactly once.
	s1 *replica        // http.post: a replica over loopback
	s2 *service.Server // service.serve_http: in-process ServeHTTP
	s3 *core.Framework // core.predict_loops: PredictLoops as the service calls it
	s4 *fleetStack     // fleet.post: the router in front of two replicas
	lc *loopCache
	rl policy.Policy

	// fw replays the stages: units are loaded into it so EmbeddingInto runs
	// on exactly the contexts inference extracts.
	fw     *core.Framework
	decide func([]float64) (int, int)
	brute  policy.Policy
	ex     code2vec.Extractor
	vec    []float64
	seen   map[api.LoopID]bool

	derived                           map[string]map[int]int64 // per-file ns
	files, loops, contexts, decisions int
	clamped, hits, lookups            int
}

func newReplayer(model string, chk *checker, fw *core.Framework, boots *[]float64) (*replayer, error) {
	rp := &replayer{tr: tracer{t0: time.Now()}, chk: chk, client: newClient(2), fw: fw, lc: newLoopCache(),
		seen: map[api.LoopID]bool{}, derived: map[string]map[int]int64{}, vec: make([]float64, fw.EmbedDim())}
	var err error
	if rp.decide, err = fw.Decider(); err != nil {
		return nil, err
	}
	if rp.brute, err = fw.Policy("brute"); err != nil {
		return nil, err
	}
	if rp.s1, err = startReplica(model); err != nil {
		return nil, err
	}
	start := time.Now()
	if rp.s2, err = service.New(service.Config{ModelPath: model}); err != nil {
		rp.close()
		return nil, err
	}
	*boots = append(*boots, ms(time.Since(start)), ms(rp.s1.boot))
	if rp.s3, err = loadFramework(model); err != nil {
		rp.close()
		return nil, err
	}
	if rp.rl, err = rp.s3.Policy(core.DefaultPolicy); err != nil {
		rp.close()
		return nil, err
	}
	if rp.s4, err = startFleet(model); err != nil {
		rp.close()
		return nil, err
	}
	for _, r := range rp.s4.replicas {
		*boots = append(*boots, ms(r.boot))
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.s1 != nil {
		rp.s1.close()
	}
	if rp.s2 != nil {
		rp.s2.Close()
	}
	if rp.s4 != nil {
		rp.s4.close()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns int64) float64        { return float64(ns) / 1e3 }

// file replays sampled file i. The answers of every stack and of the stage
// replay must reproduce what the workload's stack served.
func (rp *replayer) file(ctx context.Context, i int, s served) error {
	tr := &rp.tr
	in := s.in
	root := tr.begin("file", i, -1)
	defer tr.end(root)
	body, err := json.Marshal(in.request())
	if err != nil {
		return err
	}
	timed := func(name string, f func()) int64 {
		sp := tr.begin(name, i, root)
		f()
		tr.end(sp)
		return tr.spans[sp].End - tr.spans[sp].Start
	}

	var r1 reply
	dPost := timed("http.post", func() { r1, err = post(ctx, rp.client, rp.s1.lb.url+"/v2/compile", "application/json", body) })
	if err != nil {
		return err
	}
	var resp api.CompileResponse
	if err := json.Unmarshal(r1.body, &resp); err != nil {
		return fmt.Errorf("%s: status %d: %w", in.File, r1.status, err)
	}
	if err := rp.chk.response(in, &resp); err != nil {
		return err
	}
	if h := r1.header.Get("X-Neurovec-Cache"); h != "" {
		rp.lookups++
		if h == "hit" {
			rp.hits++
		}
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	dServe := timed("service.serve_http", func() { rp.s2.ServeHTTP(rec, req) })
	s2hit := rec.Header().Get("X-Neurovec-Cache") == "hit"

	opts := []core.InferOption{core.WithPolicy(rp.rl), core.WithLoopCache(rp.lc), core.WithSourceName(in.File)}
	dPredict := timed("core.predict_loops", func() { _, err = rp.s3.PredictLoops(ctx, in.Source, in.Params, opts...) })
	if err != nil {
		return fmt.Errorf("%s: %w", in.File, err)
	}

	var r4 reply
	dFleet := timed("fleet.post", func() { r4, err = post(ctx, rp.client, rp.s4.lb.url+"/v2/compile", "application/json", body) })
	if err != nil {
		return err
	}
	if !bytes.Equal(r4.body, r1.body) {
		return fmt.Errorf("%s: router answer differs from a single replica's", in.File)
	}

	executed, err := rp.stages(ctx, i, root, in, s, body, &resp)
	if err != nil {
		return err
	}
	overhead := dServe
	if !s2hit {
		overhead -= dPredict
	}
	for name, ns := range map[string]int64{
		"http.loopback":      dPost - dServe,
		"service.overhead":   overhead,
		"core.predict_loops": dPredict,
		"core.unattributed":  dPredict - executed,
		"fleet.hop":          dFleet - dPost,
	} {
		if rp.derived[name] == nil {
			rp.derived[name] = map[int]int64{}
		}
		rp.derived[name][i] = ns
	}
	rp.files++
	return nil
}

// stages replays PredictLoops's pipeline for one file with a span around
// every layer call, checks the result against the served answer, and
// returns the time of the stages PredictLoops itself would have run (a loop
// whose decision the per-loop cache holds skips embed and decide).
func (rp *replayer) stages(ctx context.Context, i, root int, in input, s served, body []byte, resp *api.CompileResponse) (int64, error) {
	tr := &rp.tr
	parent := tr.begin("replay", i, root)
	defer tr.end(parent)
	var executed int64
	timed := func(name string, par int, run bool, f func()) {
		sp := tr.begin(name, i, par)
		f()
		tr.end(sp)
		if run {
			executed += tr.spans[sp].End - tr.spans[sp].Start
		}
	}
	fw := rp.fw
	var (
		prog  *lang.Program
		info  *sema.Info
		infos []extractor.LoopInfo
		ids   map[string]api.LoopID
		err   error
	)
	timed("lang.parse", parent, true, func() { prog, err = lang.ParseFile(in.File, in.Source) })
	if err != nil {
		return 0, err
	}
	timed("sema.check", parent, true, func() { info = sema.Check(in.File, prog) })
	timed("extractor.loops", parent, true, func() { infos = extractor.Loops(prog) })
	timed("api.loop_ids", parent, true, func() { ids = api.LoopIDs(prog) })
	opts := fw.Cfg.Lower
	if in.Params != nil {
		opts.ParamValues = in.Params
	}
	opts.Facts = info.Facts
	var lowered *ir.Program
	timed("lower.program", parent, true, func() { lowered, err = lower.Program(prog, opts) })
	if err != nil {
		return 0, err
	}
	var base map[string]*vectorizer.Plan
	timed("costmodel.plans", parent, true, func() { base = costmodel.Plans(lowered, fw.Arch()) })
	var baseCycles float64
	timed("sim.baseline", parent, true, func() { baseCycles = sim.Program(lowered, base, fw.Cfg.Sim).Cycles })

	// Units for EmbeddingInto: loaded untimed, one per innermost loop.
	first := fw.NumSamples()
	if err := fw.LoadSource(in.File, in.Source, in.Params); err != nil {
		return 0, err
	}
	single := make(map[string]*vectorizer.Plan, len(base))
	combined := make(map[string]*vectorizer.Plan, len(base))
	for k, v := range base {
		single[k], combined[k] = v, v
	}
	var decisions []extractor.Decision
	if len(infos) != len(s.loops) {
		return 0, fmt.Errorf("%s: replay found %d loops, %d served", in.File, len(infos), len(s.loops))
	}
	for j, li := range infos {
		loop := lowered.FindLoop(li.Label)
		if loop == nil {
			return 0, fmt.Errorf("%s: loop %s missing from IR", in.File, li.Label)
		}
		id := ids[li.Label]
		embed := !rp.seen[id]
		rp.seen[id] = true
		lsp := tr.begin("loop", i, parent)
		var ctxs []code2vec.Context
		timed("code2vec.extract", lsp, embed, func() { ctxs = rp.ex.Extract(li.Outermost, fw.Cfg.Embed) })
		timed("code2vec.forward", lsp, embed, func() { fw.EmbeddingInto(rp.vec, first+j) })
		var vf, ifc int
		timed("rl.decide", lsp, embed, func() { vf, ifc = rp.decide(rp.vec) })
		var plan *vectorizer.Plan
		timed("vectorizer.plan", lsp, true, func() { plan = vectorizer.New(loop, fw.Arch(), vf, ifc) })
		single[li.Label] = plan
		var cycles float64
		timed("sim.loop", lsp, true, func() { cycles = sim.Program(lowered, single, fw.Cfg.Sim).Cycles })
		single[li.Label] = base[li.Label]
		if base[li.Label] == nil {
			delete(single, li.Label)
		}
		combined[li.Label] = plan
		decisions = append(decisions, extractor.Decision{Label: li.Label, VF: vf, IF: ifc})
		tr.end(lsp)

		want := s.loops[j]
		if want.VF != vf || want.IF != ifc || want.Cycles != cycles || want.Loop != id {
			return 0, fmt.Errorf("%s: loop %s replayed as VF=%d IF=%d cycles=%v, served VF=%d IF=%d cycles=%v",
				in.File, li.Label, vf, ifc, cycles, want.VF, want.IF, want.Cycles)
		}
		rp.loops++
		rp.contexts += len(ctxs)
		rp.decisions++
		if plan.VF < vf {
			rp.clamped++
		}

		req := &policy.Request{Name: li.Label, Source: in.Source, Prog: lowered, Loop: loop, Arch: fw.Arch(),
			Evaluate: func(vf, ifc int) float64 {
				plans := make(map[string]*vectorizer.Plan, len(base))
				for k, v := range base {
					plans[k] = v
				}
				plans[loop.Label] = vectorizer.New(loop, fw.Arch(), vf, ifc)
				return sim.Program(lowered, plans, fw.Cfg.Sim).Cycles
			}}
		var berr error
		timed("policy.brute_decide", root, false, func() { _, berr = rp.brute.Decide(ctx, req) })
		if berr != nil {
			return 0, berr
		}
	}
	var predicted float64
	timed("sim.combined", parent, true, func() { predicted = sim.Program(lowered, combined, fw.Cfg.Sim).Cycles })
	timed("extractor.annotate", parent, true, func() { extractor.Annotate(prog, decisions) })
	if (!math.IsNaN(s.predicted) && predicted != s.predicted) || baseCycles != resp.BaselineCycles || predicted != resp.PredictedCycles {
		return 0, fmt.Errorf("%s: replayed baseline=%v predicted=%v, served baseline=%v predicted=%v",
			in.File, baseCycles, predicted, resp.BaselineCycles, s.predicted)
	}

	// The codec cost the service pays per file: decoding the request and
	// encoding the answer.
	timed("api.decode", parent, false, func() {
		var req api.CompileRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return 0, err
	}
	timed("api.encode", parent, false, func() { _, err = json.Marshal(resp) })
	return executed, err
}

// runTraced replays a fixed sample of the workload stage by stage and
// reports the per-layer metrics. End-to-end metrics come only from the
// untraced run.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	model, trainS, err := fixture(ctx, cfg.dir, cfg.fixture, true)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var loads, boots []float64
	var fw *core.Framework
	for i := 0; i < 3; i++ {
		start := time.Now()
		if fw, err = loadFramework(model); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(start)))
	}
	chk := newChecker(fw)

	// The live pass: the workload's own stack serves the sample to its own
	// clients, after the same warm-up as the untraced run.
	ops := cfg.sample[cfg.workload]
	perOp := 1
	switch cfg.workload {
	case fleetBatch:
		perOp = batchSize
	case corpusEval:
		_, ins, err := corpusInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		perOp = len(ins)
	}
	d, err := newDriver(cfg, model, chk, ops*perOp)
	if err != nil {
		return nil, err
	}
	switch dd := d.(type) {
	case *singleDriver:
		boots = append(boots, ms(dd.rep.boot))
	case *fleetDriver:
		for _, r := range dd.fs.replicas {
			boots = append(boots, ms(r.boot))
		}
	}
	w := closedLoop(ctx, d, clients(cfg.workload), cfg.warm[cfg.workload], time.Time{}, true, nil)
	res.count(w.files, w.failed)
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	rt0 := readRuntime()
	live := closedLoop(ctx, d, clients(cfg.workload), ops, time.Time{}, false, nil)
	rt1 := readRuntime()
	rss := peakRSS()
	res.count(live.files, live.failed)
	sample := d.sampled()
	d.close()

	rp, err := newReplayer(model, chk, fw, &boots)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	// The replay gets half the window: it is several times slower per file
	// than serving, and a traced run must fit the same time budget.
	deadline := time.Now().Add(cfg.window / 2)
	for i, s := range sample {
		if s.in.File == "" || !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
		err := rp.file(ctx, i, s)
		res.count(1, btoi(err != nil))
		if err != nil && res.Failed <= 5 {
			fmt.Fprintln(os.Stderr, "replay:", err)
		}
	}
	if rp.files == 0 {
		return nil, fmt.Errorf("trace: no file replayed")
	}
	svc, err := promValues(ctx, rp.client, rp.s1.lb.url+"/metrics")
	if err != nil {
		return nil, err
	}
	fl, err := promValues(ctx, rp.client, rp.s4.lb.url+"/metrics")
	if err != nil {
		return nil, err
	}
	lines, lost, err := ndjsonProbe(ctx, model, chk, cfg.seed, cfg.ndjson, &boots)
	if err != nil {
		return nil, err
	}

	// Per-layer self time, summed per file; the median over files.
	self := selfTimes(rp.tr.spans)
	perFile := map[string]map[int]int64{}
	for _, name := range stageSpans {
		perFile[name] = map[int]int64{}
	}
	for i, s := range rp.tr.spans {
		if m, ok := perFile[s.Name]; ok {
			m[s.File] += self[i]
		}
	}
	for name, m := range rp.derived {
		perFile[name] = m
	}
	for name, m := range perFile {
		var vals []float64
		for _, ns := range m {
			vals = append(vals, us(ns))
		}
		res.set(name+"_us", median(vals), "us", len(vals))
	}

	res.set("service.response_cache_hit_ratio", ratio(rp.hits, rp.lookups), "ratio", rp.lookups)
	res.set("service.queue_wait_mean_us", 1e6*sumSeries(svc, "neurovec_queue_wait_seconds_sum")/
		sumSeries(svc, "neurovec_queue_wait_seconds_count"), "us", int(sumSeries(svc, "neurovec_queue_wait_seconds_count")))
	res.set("service.pool_rejected", sumSeries(svc, "neurovec_pool_rejected_total"), "count", 1)
	fHits, fMiss := sumSeries(fl, "neurovec_fleet_cache_hits_total"), sumSeries(fl, "neurovec_fleet_cache_misses_total")
	res.set("fleet.cache_hit_ratio", ratio(int(fHits), int(fHits+fMiss)), "ratio", int(fHits+fMiss))
	res.set("fleet.retries", sumSeries(fl, "neurovec_fleet_retries_total"), "count", 1)
	res.set("fleet.hedges", sumSeries(fl, "neurovec_fleet_hedges_total"), "count", 1)
	res.set("fleet.forward_failures", sumSeries(fl, "neurovec_fleet_requests_total", `outcome="error"`)+
		sumSeries(fl, "neurovec_fleet_requests_total", `outcome="busy"`), "count", 1)

	files := float64(live.files)
	res.set("runtime.alloc_bytes_per_file", (rt1[0]-rt0[0])/files, "bytes", live.files)
	res.set("runtime.allocs_per_file", (rt1[1]-rt0[1])/files, "count", live.files)
	// The runtime updates its CPU classes only at GCs; no GC means no share.
	gcShare := 0.0
	if total := rt1[3] - rt0[3]; total > 0 {
		gcShare = (rt1[2] - rt0[2]) / total
	}
	res.set("runtime.gc_cpu_share", gcShare, "ratio", live.files)
	res.set("runtime.peak_rss_mb", rss/(1<<20), "MB", 1)

	res.set("core.loops_per_file", float64(rp.loops)/float64(rp.files), "count", rp.files)
	res.set("code2vec.contexts_per_loop", float64(rp.contexts)/float64(rp.loops), "count", rp.loops)
	res.set("vectorizer.clamp_ratio", ratio(rp.clamped, rp.decisions), "ratio", rp.decisions)
	res.set("vectorizer.decisions", float64(rp.decisions), "count", rp.decisions)
	res.set("trainer.fixture_s", trainS, "s", 1)
	res.set("core.load_model_ms", median(loads), "ms", len(loads))
	res.set("service.boot_ms", median(boots), "ms", len(boots))
	res.set("service.ndjson_lost_line_ratio", ratio(lost, lines), "ratio", lines)
	res.set("service.ndjson_lines", float64(lines), "count", lines)
	res.set("trace.files", float64(rp.files), "count", rp.files)

	if err := writeSpans(cfg, rp.tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runtimeNames are the runtime/metrics the traced run differences over its
// live pass: heap bytes and objects allocated, GC and total CPU time.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// ndjsonProbe sends fixed 16-line NDJSON streams to a fresh replica and
// counts request lines that got no successful response line.
func ndjsonProbe(ctx context.Context, model string, chk *checker, seed int64, streams int, boots *[]float64) (lines, lost int, err error) {
	rep, err := startReplica(model)
	if err != nil {
		return 0, 0, err
	}
	defer rep.close()
	*boots = append(*boots, ms(rep.boot))
	src, err := newColdStream(seed, "ndjson")
	if err != nil {
		return 0, 0, err
	}
	client := newClient(2)
	var next, missing atomic.Int64
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < streams; j = int(next.Add(1)) - 1 {
				ins, err := src.batch(j)
				if err != nil {
					errs <- err
					return
				}
				var body bytes.Buffer
				want := map[string]input{}
				for _, in := range ins {
					b, err := json.Marshal(in.request())
					if err != nil {
						errs <- err
						return
					}
					body.Write(b)
					body.WriteByte('\n')
					want[in.File] = in
				}
				ok := 0
				if rp, err := post(ctx, client, rep.lb.url+"/v2/compile", "application/x-ndjson", body.Bytes()); err == nil {
					sc := bufio.NewScanner(bytes.NewReader(rp.body))
					sc.Buffer(make([]byte, 64*1024), 1<<22)
					for sc.Scan() {
						var r api.CompileResponse
						if json.Unmarshal(sc.Bytes(), &r) != nil {
							continue
						}
						if in, found := want[r.File]; found && chk.response(in, &r) == nil {
							ok++
							delete(want, r.File)
						}
					}
				}
				missing.Add(int64(len(ins) - ok))
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, err
	}
	return streams * batchSize, int(missing.Load()), nil
}

// writeSpans writes the traced run's spans as JSON.
func writeSpans(cfg config, spans []span) error {
	path := cfg.spans
	if path == "" {
		path = filepath.Join(cfg.dir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
