// Package obs is the observability layer every subsystem reports through:
// a dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms, Prometheus text exposition) and a lightweight,
// allocation-conscious span API for per-request tracing.
//
// The two halves share one design rule: the disabled path costs nothing.
// StartSpan on a context without a recorder returns a nil span without
// allocating, and every metric update is a single atomic operation — no
// locks on the hot path, no maps touched after registration. The serving
// layer (internal/service), the trainer, and the evaluation harness all
// register into one Registry, so GET /metrics is the single pane of glass
// for the whole system.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are safe
// for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets are upper
// bounds in ascending order; observations above the last bound land only in
// the implicit +Inf bucket. Observe is one atomic add per call.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // per-bucket (non-cumulative); rendered cumulative
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric kinds, also the TYPE line in the exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one registered metric name: its metadata and all its children
// (one per label-value combination; exactly one for unlabeled metrics).
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	fn       func() float64 // kindGauge with a callback instead of a child
}

// labelKey joins label values into the child-map key and validates arity.
func (f *family) labelKey(lvs []string) string {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	return strings.Join(lvs, "\x00")
}

// Registry holds every registered metric and renders the Prometheus text
// exposition. Registration is idempotent: asking for an existing name with
// the same kind returns the already-registered instrument, so packages can
// re-register without coordination. A name re-registered as a different kind
// panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it on first use.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: labels, bounds: bounds,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a counter family with the given labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(lvs ...string) *Counter {
	key := v.f.labelKey(lvs)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c := v.f.counters[key]
	if c == nil {
		c = &Counter{}
		v.f.counters[key] = c
	}
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time — the
// natural shape for queue depth, in-flight counts, and derived ratios.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(lvs ...string) *Gauge {
	key := v.f.labelKey(lvs)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	g := v.f.gauges[key]
	if g == nil {
		g = &Gauge{}
		v.f.gauges[key] = g
	}
	return g
}

// Reset drops every child — used by info-style gauges where only the current
// label set (e.g. the served model version) should appear in the exposition.
func (v *GaugeVec) Reset() {
	v.f.mu.Lock()
	v.f.gauges = make(map[string]*Gauge)
	v.f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram {
	key := v.f.labelKey(lvs)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h := v.f.hists[key]
	if h == nil {
		h = &Histogram{bounds: v.f.bounds, counts: make([]atomic.Int64, len(v.f.bounds))}
		v.f.hists[key] = h
	}
	return h
}

// WriteTo renders the full registry in the Prometheus text exposition
// format: families sorted by name, children sorted by label values, every
// family preceded by its HELP and TYPE lines. The snapshot is rendered to an
// internal buffer first, so a slow scraper never holds metric locks.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// render writes one family's HELP/TYPE header and all its samples.
func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	switch f.kind {
	case kindCounter:
		for _, key := range sortedKeys(f.counters) {
			fmt.Fprintf(b, "%s%s %d\n", f.name, f.labelString(key, ""), f.counters[key].Value())
		}
	case kindGauge:
		if f.fn != nil {
			fmt.Fprintf(b, "%s %g\n", f.name, f.fn())
			return
		}
		for _, key := range sortedKeys(f.gauges) {
			fmt.Fprintf(b, "%s%s %g\n", f.name, f.labelString(key, ""), f.gauges[key].Value())
		}
	case kindHistogram:
		for _, key := range sortedKeys(f.hists) {
			h := f.hists[key]
			cum := int64(0)
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelString(key, fmt.Sprintf("le=\"%g\"", ub)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelString(key, `le="+Inf"`), h.Count())
			fmt.Fprintf(b, "%s_sum%s %g\n", f.name, f.labelString(key, ""), h.Sum())
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labelString(key, ""), h.Count())
		}
	}
}

// labelString renders {k="v",...} for one child key, appending extra (a
// pre-rendered pair like le="0.5") when non-empty.
func (f *family) labelString(key, extra string) string {
	if len(f.labels) == 0 && extra == "" {
		return ""
	}
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, "\x00")
		for i, l := range f.labels {
			parts = append(parts, fmt.Sprintf("%s=%q", l, values[i]))
		}
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
