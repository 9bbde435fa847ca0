// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate. Each FigN function returns
// a printable artifact; the bench harness (bench_test.go) and the CLI's
// "report" command drive them. Figures 7, 8 and 9 share one framework built
// by Train and decide through core.Compile and Decide, as /v2/compile and
// neurovec eval do.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is a printable named grid of float values.
type Table struct {
	Title   string
	Columns []string
	rows    []row
	// Notes carry free-text observations attached below the table.
	Notes []string
}

type row struct {
	label  string
	values map[string]float64
}

// Add appends a row; values are keyed by column name.
func (t *Table) Add(label string, values map[string]float64) {
	t.rows = append(t.rows, row{label: label, values: values})
}

// Column returns all values of a column in row order (missing cells are
// skipped).
func (t *Table) Column(col string) []float64 {
	var out []float64
	for _, r := range t.rows {
		if v, ok := r.values[col]; ok {
			out = append(out, v)
		}
	}
	return out
}

// GeoMean returns the geometric mean of a column.
func (t *Table) GeoMean(col string) float64 {
	vs := t.Column(col)
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return math.NaN()
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// Mean returns the arithmetic mean of a column.
func (t *Table) Mean(col string) float64 {
	vs := t.Column(col)
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	labelW := 5
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for _, c := range t.Columns {
			if v, ok := r.values[c]; ok {
				fmt.Fprintf(&b, "%12.3f", v)
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Curves holds learning curves per configuration label (Figures 5 and 6).
type Curves struct {
	Title string
	// RewardMean and Loss are indexed by configuration label; each value is
	// the per-iteration series.
	RewardMean map[string][]float64
	Loss       map[string][]float64
	Steps      map[string][]int
}

// NewCurves allocates an empty curve set.
func NewCurves(title string) *Curves {
	return &Curves{
		Title:      title,
		RewardMean: map[string][]float64{},
		Loss:       map[string][]float64{},
		Steps:      map[string][]int{},
	}
}

// Final returns the mean of the last k reward points for a configuration.
func (c *Curves) Final(label string, k int) float64 {
	return finalMean(c.RewardMean[label], k)
}

// finalMean returns the mean of the last k points of series.
func finalMean(series []float64, k int) float64 {
	if len(series) == 0 {
		return math.NaN()
	}
	if k > len(series) {
		k = len(series)
	}
	s := 0.0
	for _, v := range series[len(series)-k:] {
		s += v
	}
	return s / float64(k)
}

// String renders a compact summary: per config, the first/last reward and
// final loss.
func (c *Curves) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", c.Title)
	labels := make([]string, 0, len(c.RewardMean))
	for l := range c.RewardMean {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		rm := c.RewardMean[l]
		ls := c.Loss[l]
		if len(rm) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-28s reward %+.3f -> %+.3f (final-5 %+.3f)",
			l, rm[0], rm[len(rm)-1], c.Final(l, 5))
		if len(ls) > 0 {
			fmt.Fprintf(&b, "  loss %.4f -> %.4f", ls[0], ls[len(ls)-1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
