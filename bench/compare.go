package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// exactMetrics repeat exactly for a given seed: two runs at the same seed
// must report identical values.
var exactMetrics = map[string]bool{"speedup_geomean": true, "oracle_regret": true}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints, for every (workload, metric), each record set's
// median and quartiles, and checks the end-to-end metrics against their
// bounds: a metric fails when b's median is worse than a's by more than the
// bound, or when an exact metric differs between runs at the same seed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if r.Env != set[0].Env || r.Seconds != set[0].Seconds {
				fmt.Fprintf(w, "note: records in one set differ in environment or window: %+v %gs vs %+v %gs\n",
					set[0].Env, set[0].Seconds, r.Env, r.Seconds)
			}
		}
	}
	if len(a) > 0 && len(b) > 0 && a[0].Env != b[0].Env {
		fmt.Fprintf(w, "note: the sets were measured in different environments: %+v vs %+v\n", a[0].Env, b[0].Env)
	}
	ok := true
	for _, traced := range []bool{false, true} {
		metricsSpec := sp.EndToEnd
		if traced {
			metricsSpec = sp.PerLayer
		}
		for _, wl := range workloads {
			ra, rb := pick(a, wl, traced), pick(b, wl, traced)
			if len(ra) == 0 && len(rb) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n%s (%s): %d vs %d runs\n", wl, map[bool]string{false: "end to end", true: "per layer"}[traced], len(ra), len(rb))
			fmt.Fprintf(w, "%-34s %-34s %-34s %8s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
			for _, m := range metricsSpec {
				va, vb := values(ra, m.Name), values(rb, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					fmt.Fprintf(w, "%-34s missing (%d vs %d values)\n", m.Name, len(va), len(vb))
					ok = false
					continue
				}
				verdict, pass := judge(m, ra, rb, traced)
				ok = ok && pass
				fmt.Fprintf(w, "%-34s %-34s %-34s %+7.2f%%  %s\n", m.Name, summary(va), summary(vb),
					100*change(va, vb), verdict)
			}
		}
	}
	return ok, nil
}

func pick(rs []record, workload string, traced bool) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// change is b's median relative to a's.
func change(va, vb []float64) float64 {
	ma, mb := median(va), median(vb)
	if ma == 0 {
		return 0
	}
	return (mb - ma) / math.Abs(ma)
}

// judge decides one end-to-end metric; per-layer metrics carry no bound.
func judge(m specMetric, ra, rb []record, traced bool) (string, bool) {
	if traced {
		return "", true
	}
	if exactMetrics[m.Name] {
		bySeed := map[int64]float64{}
		for _, r := range ra {
			bySeed[r.Seed] = r.Metrics[m.Name].Value
		}
		paired := 0
		for _, r := range rb {
			if v, ok := bySeed[r.Seed]; ok {
				paired++
				if v != r.Metrics[m.Name].Value {
					return fmt.Sprintf("MISMATCH at seed %d: %v vs %v", r.Seed, v, r.Metrics[m.Name].Value), false
				}
			}
		}
		if paired > 0 {
			return fmt.Sprintf("identical at %d seeds", paired), true
		}
	}
	d := change(values(ra, m.Name), values(rb, m.Name))
	worse := d
	if m.Better == "higher" {
		worse = -d
	}
	switch {
	case math.Abs(d) <= m.Bound:
		return fmt.Sprintf("within ±%.3g%%", 100*m.Bound), true
	case worse > m.Bound:
		return fmt.Sprintf("WORSE than the %.3g%% bound", 100*m.Bound), false
	default:
		return fmt.Sprintf("better, beyond ±%.3g%%", 100*m.Bound), true
	}
}
