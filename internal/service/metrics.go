package service

import (
	"io"
	"sync"
	"time"

	"neurovec/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, chosen for a service whose work ranges from cache hits (~µs)
// to full sweep simulations (~tens of ms on small inputs, seconds on large
// ones).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the upper bounds (seconds) of the per-stage pipeline
// histogram. Stages run from microseconds (parse on a small kernel) to tens
// of milliseconds (a brute-force decide), so the grid starts finer than the
// request-level one.
var stageBuckets = []float64{
	0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// Metrics is the service's metrics surface: a thin facade over obs.Registry
// that keeps the recording API the rest of the package (and the trainer /
// eval paths riding through it) already speaks. All methods are safe for
// concurrent use; every update is an atomic on a pre-registered instrument.
type Metrics struct {
	reg *obs.Registry

	requests     *obs.CounterVec   // endpoint, code
	reqDur       *obs.HistogramVec // endpoint
	stageDur     *obs.HistogramVec // stage (fed by obs spans)
	queueWait    *obs.Histogram
	policyReq    *obs.CounterVec // policy, outcome
	evalRuns     *obs.CounterVec // policy, outcome
	evalFiles    *obs.CounterVec // suite
	trainJobs    *obs.CounterVec // outcome
	trainIters   *obs.Counter
	compileLoops *obs.CounterVec // origin
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	reloads      *obs.Counter
	reloadErrors *obs.Counter
	poolRejected *obs.Counter
	poolPanics   *obs.Counter
	modelInfo    *obs.GaugeVec // version

	mu sync.Mutex // serializes SetModel's Reset+Set pair
}

// NewMetrics returns a registry pre-populated with every metric family the
// service exposes, so /metrics always carries full HELP/TYPE metadata even
// before the first event.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		reg:          r,
		requests:     r.CounterVec("neurovec_requests_total", "Requests served, by endpoint and status code.", "endpoint", "code"),
		reqDur:       r.HistogramVec("neurovec_request_duration_seconds", "Request latency histogram by endpoint.", latencyBuckets, "endpoint"),
		stageDur:     r.HistogramVec("neurovec_stage_duration_seconds", "Compile-pipeline stage latency histogram (parse, lower, embed, decide, sim, ...).", stageBuckets, "stage"),
		queueWait:    r.Histogram("neurovec_queue_wait_seconds", "Time jobs spend queued before a pool worker picks them up.", latencyBuckets),
		policyReq:    r.CounterVec("neurovec_policy_requests_total", "Policy decisions computed, by policy and outcome.", "policy", "outcome"),
		evalRuns:     r.CounterVec("neurovec_eval_runs_total", "Corpus evaluations computed, by policy and outcome.", "policy", "outcome"),
		evalFiles:    r.CounterVec("neurovec_eval_files_total", "Files evaluated by the corpus harness, by suite.", "suite"),
		trainJobs:    r.CounterVec("neurovec_train_jobs_total", "Training jobs, by lifecycle outcome.", "outcome"),
		trainIters:   r.Counter("neurovec_train_iterations_total", "Completed training iterations across jobs."),
		compileLoops: r.CounterVec("neurovec_compile_loops_total", "Per-loop decisions served via the v2 compile path, by origin.", "origin"),
		cacheHits:    r.Counter("neurovec_cache_hits_total", "Response cache hits."),
		cacheMisses:  r.Counter("neurovec_cache_misses_total", "Response cache misses."),
		reloads:      r.Counter("neurovec_model_reloads_total", "Successful model hot-reloads."),
		reloadErrors: r.Counter("neurovec_model_reload_errors_total", "Failed model hot-reloads."),
		poolRejected: r.Counter("neurovec_pool_rejected_total", "Requests rejected because the work queue was full."),
		poolPanics:   r.Counter("neurovec_pool_panics_total", "Request panics recovered by the worker pool (each cost one request a 500)."),
		modelInfo:    r.GaugeVec("neurovec_model_info", "Currently served model (value is load time in unix seconds).", "version"),
	}
	r.GaugeFunc("neurovec_cache_hit_ratio", "Response cache hit ratio since start.", func() float64 {
		hits, misses := m.CacheStats()
		if total := hits + misses; total > 0 {
			return float64(hits) / float64(total)
		}
		return 0
	})
	return m
}

// Registry exposes the underlying obs.Registry so other subsystems (trainer
// jobs, the eval harness, pool gauges) can register into the same /metrics
// exposition.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// StageSink returns the sink that turns obs span durations into
// neurovec_stage_duration_seconds{stage} observations; hand it to
// obs.WithRecorder when dispatching pipeline work.
func (m *Metrics) StageSink() obs.StageSink { return m.stageDur }

// ObserveQueueWait records how long one job waited in the pool queue.
func (m *Metrics) ObserveQueueWait(d time.Duration) { m.queueWait.Observe(d.Seconds()) }

// CompileLoop records one per-loop decision served through the v2 compile
// path, by provenance origin ("policy" or "pin").
func (m *Metrics) CompileLoop(origin string) {
	if origin == "" {
		return
	}
	m.compileLoops.With(origin).Inc()
}

// TrainJob records one training-job lifecycle event by outcome ("started",
// "succeeded", "failed", "canceled").
func (m *Metrics) TrainJob(outcome string) { m.trainJobs.With(outcome).Inc() }

// TrainIterations records n completed training iterations.
func (m *Metrics) TrainIterations(n int) { m.trainIters.Add(int64(n)) }

// Policy records one policy decision computed for a request (cache hits are
// not counted here — they never re-run the policy).
func (m *Metrics) Policy(name string, ok bool) {
	if name == "" {
		return
	}
	m.policyReq.With(name, outcomeLabel(ok)).Inc()
}

// EvalRun records one corpus evaluation computed for a /v1/eval request
// (cache hits never re-run the harness and are not counted).
func (m *Metrics) EvalRun(policy string, ok bool) {
	if policy == "" {
		return
	}
	m.evalRuns.With(policy, outcomeLabel(ok)).Inc()
}

// EvalFiles records n files evaluated under one suite.
func (m *Metrics) EvalFiles(suite string, n int) {
	if suite == "" || n <= 0 {
		return
	}
	m.evalFiles.With(suite).Add(int64(n))
}

// ObserveRequest records one finished request.
func (m *Metrics) ObserveRequest(endpoint string, status int, elapsed time.Duration) {
	m.requests.With(endpoint, itoa(status)).Inc()
	m.reqDur.With(endpoint).Observe(elapsed.Seconds())
}

// CacheHit records a response-cache hit.
func (m *Metrics) CacheHit() { m.cacheHits.Inc() }

// CacheMiss records a response-cache miss.
func (m *Metrics) CacheMiss() { m.cacheMisses.Inc() }

// CacheStats returns the hit/miss counters.
func (m *Metrics) CacheStats() (hits, misses int64) {
	return m.cacheHits.Value(), m.cacheMisses.Value()
}

// Reload records a model hot-reload attempt.
func (m *Metrics) Reload(ok bool) {
	if ok {
		m.reloads.Inc()
	} else {
		m.reloadErrors.Inc()
	}
}

// PoolRejected records a request turned away because the work queue was full.
func (m *Metrics) PoolRejected() { m.poolRejected.Inc() }

// PoolPanic records a request panic recovered by the worker pool.
func (m *Metrics) PoolPanic() { m.poolPanics.Inc() }

// SetModel records the currently served model version for the info gauge.
// The vec is reset first so only the live version appears in the exposition.
func (m *Metrics) SetModel(version string, loadedAt time.Time) {
	if version == "" {
		return
	}
	m.mu.Lock()
	m.modelInfo.Reset()
	m.modelInfo.With(version).Set(float64(loadedAt.Unix()))
	m.mu.Unlock()
}

// WriteTo renders the registry in the Prometheus text exposition format.
// The exposition is rendered to a buffer before writing, so a slow scraper
// cannot stall request accounting service-wide.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }

func outcomeLabel(ok bool) string {
	if ok {
		return "ok"
	}
	return "error"
}

// itoa renders small positive ints (HTTP status codes) without fmt.
func itoa(n int) string {
	if n <= 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
