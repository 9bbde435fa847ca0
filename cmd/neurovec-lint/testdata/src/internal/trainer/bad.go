// Package bad is a lint fixture: every rule family must fire on this file,
// and the one directive-carrying line must stay quiet. It lives under
// testdata so the real build and the repo-wide lint walk never see it.
package bad

import (
	"context"
	"math/rand"
	"time"
)

type registry struct{}

func (registry) Counter(name, help string) int              { return 0 }
func (registry) GaugeVec(name, help string, l ...any) int   { return 0 }
func (registry) Histogram(name string, b []float64) int     { return 0 }
func (registry) CounterVec(name, help string, l ...any) int { return 0 }

type langPkg struct{}

func (langPkg) MustParse(src string) any { return nil }

var lang langPkg

func wallClock() time.Time {
	return time.Now() // detpkg: wall clock in a deterministic package
}

func globalRand() int {
	return rand.Intn(10) // detpkg: global math/rand source
}

func seededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: explicit source
}

func allowedClock() time.Time {
	return time.Now() //lint:allow detpkg fixture proves the directive suppresses a finding
}

func ctxSecond(name string, ctx context.Context) error { // ctxfirst
	return ctx.Err()
}

func ctxFirst(ctx context.Context, name string) error { // ok
	return ctx.Err()
}

func badMetrics(r registry) {
	r.Counter("neurovec_jobs", "missing _total")            // metricnames
	r.Counter("neurovecJobsTotal", "not snake_case")        // metricnames
	r.Counter("jobs_total", "missing prefix")               // metricnames
	r.GaugeVec("neurovec_depth_total", "gauge with _total") // metricnames
	r.Histogram("neurovec_latency", []float64{1})           // metricnames: no unit
	r.CounterVec("neurovec_requests_total", "ok", "code")   // ok
	r.Histogram("neurovec_wait_seconds", []float64{1})      // ok
	r.GaugeVec("neurovec_queue_depth", "ok")                // ok
}

func mustParseEscape() any {
	return lang.MustParse("int x;") // mustparse: panicking helper outside tests
}
