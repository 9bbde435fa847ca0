package evalharness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"neurovec/internal/api"
)

// Spec records everything that determines a report's numbers. Two runs with
// equal specs over equal corpora produce byte-identical reports (timing
// aside); the worker count is deliberately absent because sharding never
// changes the numbers, only the wall time.
type Spec struct {
	// APIVersion is the wire-schema version of the per-loop decisions in
	// Files (see package neurovec/internal/api).
	APIVersion int `json:"api_version"`
	// Policy, Baseline, and Oracle are the registry names of the evaluated
	// method, the speedup anchor, and the regret anchor.
	Policy   string `json:"policy"`
	Baseline string `json:"baseline"`
	Oracle   string `json:"oracle"`
	// Seed drives corpus generation and stochastic policies.
	Seed int64 `json:"seed"`
	// Arch names the target machine model; ModelVersion fingerprints the
	// checkpoint the learned policies decided with.
	Arch         string `json:"arch,omitempty"`
	ModelVersion string `json:"model_version,omitempty"`
	// TimeoutMS is the per-inference budget (0 = unbounded). It belongs in
	// the spec because deadline truncation changes decisions.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Suites and Files summarise the corpus shape.
	Suites []string `json:"suites"`
	Files  int      `json:"files"`
}

// FileResult is the evaluation outcome for one corpus item. Cycle counts
// include the item's scalar-work offset (the MiBench whole-program regime),
// so Speedup is end-to-end, not loop-only.
type FileResult struct {
	// Suite and Name identify the corpus item; Loops counts its decided
	// innermost loops.
	Suite string `json:"suite"`
	Name  string `json:"name"`
	Loops int    `json:"loops"`
	// Decisions are the evaluated policy's per-loop answers in the shared
	// v2 schema — the same api.Decision objects POST /v2/compile returns,
	// with stable LoopIDs and provenance.
	Decisions []api.Decision `json:"decisions,omitempty"`
	// BaselineCycles / PolicyCycles / OracleCycles are the simulated program
	// cycle counts under the baseline, evaluated, and oracle policies.
	BaselineCycles float64 `json:"baseline_cycles"`
	PolicyCycles   float64 `json:"policy_cycles"`
	OracleCycles   float64 `json:"oracle_cycles"`
	// Speedup is BaselineCycles / PolicyCycles; OracleSpeedup is the same
	// ratio for the oracle — the headroom the policy is chasing.
	Speedup       float64 `json:"speedup"`
	OracleSpeedup float64 `json:"oracle_speedup"`
	// Regret is PolicyCycles / OracleCycles - 1: 0 means the policy matched
	// the oracle; 0.25 means it left 25% on the table.
	Regret float64 `json:"regret"`
	// AgreedLoops counts loops where the policy's (VF, IF) equals the
	// oracle's exactly.
	AgreedLoops int `json:"agreed_loops"`
	// Truncated reports that a deadline cut short at least one search.
	Truncated bool `json:"truncated,omitempty"`
	// Error is set when the item could not be evaluated; such files carry
	// zero metrics and are excluded from aggregates.
	Error string `json:"error,omitempty"`

	// latency is the wall time of the file's shared compile plus the
	// evaluated policy's decide step; it is volatile across runs, so it
	// feeds the Timing block instead of the deterministic JSON body.
	latency time.Duration
}

// SuiteResult aggregates one suite's files (and, for the overall row, the
// whole corpus). Files with errors count in Errors and are excluded from
// every mean.
type SuiteResult struct {
	// Suite is the aggregated suite name ("" for the overall row); Files,
	// Errors, and Loops count its items, failed items, and decided loops.
	Suite  string `json:"suite"`
	Files  int    `json:"files"`
	Errors int    `json:"errors,omitempty"`
	Loops  int    `json:"loops"`
	// MeanSpeedup and GeoMeanSpeedup aggregate per-file end-to-end speedup
	// over the baseline; MeanOracleSpeedup is the brute-force ceiling.
	MeanSpeedup       float64 `json:"mean_speedup"`
	GeoMeanSpeedup    float64 `json:"geomean_speedup"`
	MeanOracleSpeedup float64 `json:"mean_oracle_speedup"`
	// MeanRegret averages per-file regret; Agreement is the loop-weighted
	// fraction of decisions identical to the oracle's; Truncated counts
	// files whose searches a deadline cut short.
	MeanRegret float64 `json:"mean_regret"`
	Agreement  float64 `json:"agreement"`
	Truncated  int     `json:"truncated,omitempty"`
}

// Timing is the volatile block of a report: wall-clock measurements that
// legitimately differ run to run. It is excluded from the deterministic
// rendering (WriteJSON with timing=false, WriteCSV) so reports at equal
// seeds are byte-identical.
type Timing struct {
	// WallMS is the whole run's wall-clock time; Jobs the worker count that
	// produced it.
	WallMS float64 `json:"wall_ms"`
	Jobs   int     `json:"jobs"`
	// Per-file latency percentiles (shared compile plus the evaluated
	// policy's decide step), in milliseconds.
	FileP50MS float64 `json:"file_p50_ms"`
	FileP90MS float64 `json:"file_p90_ms"`
	FileP99MS float64 `json:"file_p99_ms"`
}

// Report is the full result of one evaluation run. Files and Suites are in
// canonical (suite, name) order.
type Report struct {
	// Spec is everything that determined the numbers; Overall aggregates
	// the whole corpus, Suites each suite, Files each item.
	Spec    Spec          `json:"spec"`
	Overall SuiteResult   `json:"overall"`
	Suites  []SuiteResult `json:"suites"`
	Files   []FileResult  `json:"files"`
	// Timing is the volatile wall-clock block (nil in deterministic
	// renderings).
	Timing *Timing `json:"timing,omitempty"`
}

// WriteJSON renders the report as indented JSON. With timing=false the
// volatile Timing block is dropped and the bytes are a pure function of the
// spec and corpus — the form the golden test and the CI artifact pin.
func (r *Report) WriteJSON(w io.Writer, timing bool) error {
	out := *r
	if !timing {
		out.Timing = nil
	}
	body, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	_, err = w.Write(body)
	return err
}

// WriteCSV renders the per-file results as CSV (deterministic; no timing).
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "suite,name,loops,baseline_cycles,policy_cycles,oracle_cycles,speedup,oracle_speedup,regret,agreed_loops,truncated,error\n"); err != nil {
		return err
	}
	for _, f := range r.Files {
		fields := []string{
			csvEscape(f.Suite), csvEscape(f.Name), strconv.Itoa(f.Loops),
			formatFloat(f.BaselineCycles), formatFloat(f.PolicyCycles), formatFloat(f.OracleCycles),
			formatFloat(f.Speedup), formatFloat(f.OracleSpeedup), formatFloat(f.Regret),
			strconv.Itoa(f.AgreedLoops), strconv.FormatBool(f.Truncated), csvEscape(f.Error),
		}
		if _, err := io.WriteString(w, strings.Join(fields, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the per-suite aggregates as a human-readable table — the
// CLI's stderr companion to the machine-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s vs baseline %s (oracle %s), %d files\n",
		r.Spec.Policy, r.Spec.Baseline, r.Spec.Oracle, r.Spec.Files)
	fmt.Fprintf(&b, "%-12s %6s %6s %10s %10s %10s %10s %10s\n",
		"suite", "files", "loops", "speedup", "geomean", "oracle", "regret", "agree")
	rows := append([]SuiteResult{}, r.Suites...)
	rows = append(rows, r.Overall)
	for _, s := range rows {
		label := s.Suite
		if label == "" {
			label = "overall"
		}
		fmt.Fprintf(&b, "%-12s %6d %6d %9.3fx %9.3fx %9.3fx %9.1f%% %9.1f%%\n",
			label, s.Files, s.Loops, s.MeanSpeedup, s.GeoMeanSpeedup,
			s.MeanOracleSpeedup, 100*s.MeanRegret, 100*s.Agreement)
	}
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// aggregate folds file results (already in canonical order) into one suite
// row. suite == "" aggregates everything.
func aggregate(suite string, files []FileResult) SuiteResult {
	agg := SuiteResult{Suite: suite}
	var sumSpeed, sumLogSpeed, sumOracle, sumRegret float64
	var agreed, ok int
	for _, f := range files {
		if suite != "" && f.Suite != suite {
			continue
		}
		agg.Files++
		if f.Error != "" {
			agg.Errors++
			continue
		}
		ok++
		agg.Loops += f.Loops
		agreed += f.AgreedLoops
		sumSpeed += f.Speedup
		if f.Speedup > 0 {
			sumLogSpeed += math.Log(f.Speedup)
		}
		sumOracle += f.OracleSpeedup
		sumRegret += f.Regret
		if f.Truncated {
			agg.Truncated++
		}
	}
	if ok > 0 {
		n := float64(ok)
		agg.MeanSpeedup = sumSpeed / n
		agg.GeoMeanSpeedup = math.Exp(sumLogSpeed / n)
		agg.MeanOracleSpeedup = sumOracle / n
		agg.MeanRegret = sumRegret / n
	}
	if agg.Loops > 0 {
		agg.Agreement = float64(agreed) / float64(agg.Loops)
	}
	return agg
}

// percentile returns the q-th percentile (0 < q <= 1) of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// buildTiming folds per-file latencies into the volatile block.
func buildTiming(files []FileResult, wall time.Duration, jobs int) *Timing {
	lats := make([]time.Duration, 0, len(files))
	for _, f := range files {
		if f.Error == "" {
			lats = append(lats, f.latency)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &Timing{
		WallMS:    ms(wall),
		Jobs:      jobs,
		FileP50MS: ms(percentile(lats, 0.50)),
		FileP90MS: ms(percentile(lats, 0.90)),
		FileP99MS: ms(percentile(lats, 0.99)),
	}
}
