package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("neurovec_test_ops_total", "Test ops.", "kind")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				vec.With("a").Inc()
				vec.With("b").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := vec.With("a").Value(); got != 8000 {
		t.Errorf("counter a = %d, want 8000", got)
	}
	if got := vec.With("b").Value(); got != 16000 {
		t.Errorf("counter b = %d, want 16000", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("neurovec_test_duration_seconds", "Test latencies.", []float64{0.01, 0.1, 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(g%4) * 0.05) // 0, .05, .1, .15
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
	wantSum := 2.0 * 500 * (0 + 0.05 + 0.1 + 0.15)
	if got := h.Sum(); got < wantSum-1e-6 || got > wantSum+1e-6 {
		t.Errorf("sum = %g, want %g", got, wantSum)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("neurovec_test_gauge", "Test gauge.").With()
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Errorf("gauge = %g, want 2.25", got)
	}
}

func TestRegisterIdempotentAndKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("neurovec_test_idem_total", "Idem.")
	b := r.Counter("neurovec_test_idem_total", "Idem.")
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("re-registered counter is a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("re-registering as a different kind did not panic")
		}
	}()
	//lint:allow metricnames deliberately reuses a counter name to prove kind collisions panic
	r.GaugeVec("neurovec_test_idem_total", "Idem.")
}

// TestExpositionGolden pins the exact text rendering: HELP/TYPE headers,
// sorted families, quoted labels, integer counters, cumulative buckets.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("neurovec_test_requests_total", "Requests by code.", "code")
	c.With("200").Add(3)
	c.With("500").Inc()
	r.GaugeVec("neurovec_test_depth", "Queue depth.").With().Set(2)
	h := r.HistogramVec("neurovec_test_stage_duration_seconds", "Stage latency.", []float64{0.1, 1}, "stage")
	h.With("parse").Observe(0.05)
	h.With("parse").Observe(0.5)
	h.With("parse").Observe(5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP neurovec_test_depth Queue depth.
# TYPE neurovec_test_depth gauge
neurovec_test_depth 2
# HELP neurovec_test_requests_total Requests by code.
# TYPE neurovec_test_requests_total counter
neurovec_test_requests_total{code="200"} 3
neurovec_test_requests_total{code="500"} 1
# HELP neurovec_test_stage_duration_seconds Stage latency.
# TYPE neurovec_test_stage_duration_seconds histogram
neurovec_test_stage_duration_seconds_bucket{stage="parse",le="0.1"} 1
neurovec_test_stage_duration_seconds_bucket{stage="parse",le="1"} 2
neurovec_test_stage_duration_seconds_bucket{stage="parse",le="+Inf"} 3
neurovec_test_stage_duration_seconds_sum{stage="parse"} 5.55
neurovec_test_stage_duration_seconds_count{stage="parse"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLintAcceptsOwnExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("neurovec_test_requests_total", "Requests.", "code").With("200").Inc()
	r.GaugeFunc("neurovec_test_ratio", "A derived ratio.", func() float64 { return 0.5 })
	r.HistogramVec("neurovec_test_dur_seconds", "Latency.", []float64{0.1, 1}, "stage").With("x").Observe(0.2)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(b.String())); len(errs) != 0 {
		t.Errorf("lint rejected our own exposition: %v", errs)
	}
}

func TestLintCatchesMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without metadata": "orphan_metric 1\n",
		"bad value":               "# HELP m_total x\n# TYPE m_total counter\nm_total notanumber\n",
		"counter naming":          "# HELP m x\n# TYPE m counter\nm 1\n",
		"histogram missing +Inf":  "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"decreasing buckets":      "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	}
	for name, text := range cases {
		if errs := Lint(strings.NewReader(text)); len(errs) == 0 {
			t.Errorf("%s: lint found no errors in %q", name, text)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	sink := &captureSink{}
	ctx := WithRecorder(context.Background(), tr, sink)

	ctx1, root := StartSpan(ctx, "compile")
	ctx2, inner := StartSpan(ctx1, "parse")
	inner.Annotate("loop0")
	inner.End()
	_, sib := StartSpan(ctx2, "deeper")
	sib.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["compile"].Depth != 0 || byName["parse"].Depth != 1 || byName["deeper"].Depth != 2 {
		t.Errorf("depths wrong: %+v", byName)
	}
	if byName["parse"].Detail != "loop0" {
		t.Errorf("annotate lost: %+v", byName["parse"])
	}
	if spans[0].Name != "compile" {
		t.Errorf("spans not in start order: %+v", spans)
	}
	if len(sink.stages) != 3 {
		t.Errorf("sink saw %d stages, want 3", len(sink.stages))
	}
}

func TestNilSpanAndUnarmedContext(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Errorf("unarmed StartSpan returned a span")
	}
	if ctx2 != ctx {
		t.Errorf("unarmed StartSpan changed the context")
	}
	sp.Annotate("harmless")
	sp.End() // must not panic
	if Enabled(ctx) {
		t.Errorf("Enabled true on unarmed context")
	}
	if got := WithRecorder(ctx, nil, nil); got != ctx {
		t.Errorf("WithRecorder(nil, nil) wrapped the context")
	}
}

func TestHistogramVecAsStageSink(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("neurovec_stage_duration_seconds", "Stage latency.", []float64{1}, "stage")
	var sink StageSink = v
	sink.ObserveStage("parse", 500*time.Millisecond)
	if got := v.With("parse").Count(); got != 1 {
		t.Errorf("stage observation lost: count=%d", got)
	}
	if got := v.With("parse").Sum(); got < 0.49 || got > 0.51 {
		t.Errorf("stage sum = %g, want ~0.5", got)
	}
}

type captureSink struct {
	mu     sync.Mutex
	stages []string
}

func (c *captureSink) ObserveStage(stage string, d time.Duration) {
	c.mu.Lock()
	c.stages = append(c.stages, stage)
	c.mu.Unlock()
}

// BenchmarkSpanDisabled proves the acceptance criterion: instrumented code
// pays zero allocations when no recorder is armed.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpan(ctx, "compile")
		sp.Annotate("x")
		sp.End()
		_ = c
	}
}

func TestSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "compile")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %g per op, want 0", allocs)
	}
}

// TestSpanEnabledAllocCeiling guards the cost a ?trace=1 request pays per
// pipeline stage: the span, the child context state and the context value.
// The trace is pre-sized so its span slice never grows during the run.
func TestSpanEnabledAllocCeiling(t *testing.T) {
	tr := NewTrace()
	tr.spans = make([]SpanRecord, 0, 2000)
	ctx := WithRecorder(context.Background(), tr, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "compile")
		sp.End()
	})
	if allocs > 3 {
		t.Errorf("recorded span allocates %g per op, ceiling 3", allocs)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTrace()
	ctx := WithRecorder(context.Background(), tr, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "compile")
		sp.End()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("neurovec_bench_total", "Bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("neurovec_bench_seconds", "Bench.", []float64{0.001, 0.01, 0.1, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.005)
	}
}
