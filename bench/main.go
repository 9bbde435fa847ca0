// Command bench is neurovec's end-to-end benchmark. It drives the real
// serving stack in-process — service.Server and fleet.Router over loopback
// HTTP, and evalharness.Harness — loaded from one fixture checkpoint at the
// production model shape, checks every answer, and prints every metric by
// name and unit. See README.md in this directory.
//
//	bash bench/run.sh --workload cold_single --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload cold_single --seed 1 --trace 1
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is one run's outcome; its JSON form is the last line the benchmark
// prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int    // sample count behind each metric
	notes   map[string]string // how a metric was taken, for the table
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// env records where a result was measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() env {
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// record is one run as -out appends it: the result plus its sample counts
// and the run's settings.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Env       env                     `json:"env"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]recordMetric `json:"metrics"`
	Notes     map[string]string       `json:"notes,omitempty"`
}

type recordMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func main() {
	if os.Getenv(probeEnv) != "" {
		probeMain()
		return
	}
	cfg := defaultConfig()
	var seconds float64
	var trace int
	var out string
	var compare bool
	var specPath string
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated workload inputs (the fixture model's seed is fixed)")
	flag.Float64Var(&seconds, "seconds", cfg.window.Seconds(), "measured window (untraced) or replay budget (traced), in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays a fixed sample stage by stage and reports the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: span file (default .bench_build/spans/<workload>-seed<seed>.json)")
	flag.StringVar(&out, "out", "", "append this run's record (with sample counts and environment) to a JSONL file")
	flag.BoolVar(&compare, "compare", false, "compare two JSONL record files given as arguments against the bounds in -spec")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "the benchmark description -compare takes its bounds from")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two record files"))
		}
		ok, err := compareFiles(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		err = appendRecordTo(f, newRecord(cfg, res))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}
	printResult(os.Stdout, cfg, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one untraced or traced run of cfg.workload.
func run(ctx context.Context, cfg config) (*result, error) {
	if _, ok := cfg.warm[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runUntraced(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printResult prints the metric table, then the result as the last line.
func printResult(w io.Writer, cfg config, res *result) {
	e := currentEnv()
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  window %gs  nproc %d  GOMAXPROCS %d  %s\n",
		cfg.workload, cfg.seed, mode, cfg.window.Seconds(), e.NumCPU, e.GOMAXPROCS, e.GoVersion)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %16s  %-8s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g  %-8s %8d  %s\n", n, m.Value, m.Unit, res.samples[n], res.notes[n])
	}
	fmt.Fprintf(w, "attempted %d  failed %d  error_rate %g  correct %v\n",
		res.Attempted, res.Failed, ratio(res.Failed, res.Attempted), res.Correct)
	line, _ := json.Marshal(res) // cannot fail: run rejects non-finite values
	fmt.Fprintln(w, string(line))
}

func newRecord(cfg config, res *result) record {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Env: currentEnv(), Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]recordMetric{}, Notes: res.notes}
	for n, m := range res.Metrics {
		rec.Metrics[n] = recordMetric{Value: m.Value, Unit: m.Unit, Samples: res.samples[n]}
	}
	return rec
}

// appendRecordTo writes rec as one JSON line.
func appendRecordTo(w io.Writer, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}
