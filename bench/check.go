package main

import (
	"fmt"
	"math"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/evalharness"
)

// checker validates every answer against what the benchmark itself knows
// about the input: the loop count from its own extractor.Loops, the
// architecture's action space, and the arithmetic the schema promises.
type checker struct {
	version  string
	vfs, ifs map[int]bool
}

func newChecker(fw *core.Framework) *checker {
	c := &checker{version: fw.ModelVersion(), vfs: map[int]bool{}, ifs: map[int]bool{}}
	for _, v := range fw.Arch().VFs() {
		c.vfs[v] = true
	}
	for _, v := range fw.Arch().IFs() {
		c.ifs[v] = true
	}
	return c
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// response checks one served /v2/compile answer for in.
func (c *checker) response(in input, r *api.CompileResponse) error {
	switch {
	case r.Error != "":
		return fmt.Errorf("%s: error %q", in.File, r.Error)
	case r.Version != api.Version:
		return fmt.Errorf("%s: schema version %d, want %d", in.File, r.Version, api.Version)
	case r.File != in.File:
		return fmt.Errorf("%s: file echoed as %q", in.File, r.File)
	case r.ModelVersion != c.version || r.Policy != core.DefaultPolicy:
		return fmt.Errorf("%s: served by %s/%s, want %s/%s", in.File, r.Policy, r.ModelVersion, core.DefaultPolicy, c.version)
	case len(r.Loops) != in.Loops:
		return fmt.Errorf("%s: %d decisions for %d innermost loops", in.File, len(r.Loops), in.Loops)
	case !finitePositive(r.BaselineCycles) || !finitePositive(r.PredictedCycles):
		return fmt.Errorf("%s: cycles baseline=%v predicted=%v", in.File, r.BaselineCycles, r.PredictedCycles)
	case r.Speedup != r.BaselineCycles/r.PredictedCycles:
		return fmt.Errorf("%s: speedup %v is not baseline/predicted %v", in.File, r.Speedup, r.BaselineCycles/r.PredictedCycles)
	}
	for _, d := range r.Loops {
		if err := c.decision(in.File, d); err != nil {
			return err
		}
		if d.PredictedSpeedup != r.BaselineCycles/d.Cycles {
			return fmt.Errorf("%s: loop %s speedup %v is not baseline/cycles", in.File, d.Label, d.PredictedSpeedup)
		}
	}
	return nil
}

func (c *checker) decision(file string, d api.Decision) error {
	switch {
	case !c.vfs[d.VF] || !c.ifs[d.IF]:
		return fmt.Errorf("%s: loop %s decision VF=%d IF=%d outside the action space", file, d.Label, d.VF, d.IF)
	case !finitePositive(d.Cycles) || !finitePositive(d.PredictedSpeedup):
		return fmt.Errorf("%s: loop %s cycles=%v speedup=%v", file, d.Label, d.Cycles, d.PredictedSpeedup)
	case d.Loop == "":
		return fmt.Errorf("%s: loop %s has no loop_id", file, d.Label)
	}
	return nil
}

// report checks one corpus evaluation: no per-file errors, one decision per
// innermost loop, legal factors, and consistent speedup and regret.
func (c *checker) report(rep *evalharness.Report, ins []input) error {
	if rep.Overall.Errors != 0 || len(rep.Files) != len(ins) {
		return fmt.Errorf("eval: %d errors over %d files, want 0 over %d", rep.Overall.Errors, len(rep.Files), len(ins))
	}
	for i, f := range rep.Files {
		in := ins[i]
		switch {
		case f.Error != "":
			return fmt.Errorf("eval %s: %s", in.File, f.Error)
		case f.Suite+"/"+f.Name != in.File:
			return fmt.Errorf("eval: file %d is %s/%s, want %s", i, f.Suite, f.Name, in.File)
		case f.Loops != in.Loops || len(f.Decisions) != in.Loops:
			return fmt.Errorf("eval %s: %d decisions for %d innermost loops", in.File, len(f.Decisions), in.Loops)
		case !finitePositive(f.PolicyCycles) || !finitePositive(f.OracleCycles):
			return fmt.Errorf("eval %s: cycles policy=%v oracle=%v", in.File, f.PolicyCycles, f.OracleCycles)
		case f.Speedup != f.BaselineCycles/f.PolicyCycles || f.Regret != f.PolicyCycles/f.OracleCycles-1:
			return fmt.Errorf("eval %s: speedup/regret inconsistent with cycles", in.File)
		}
		for _, d := range f.Decisions {
			if err := c.decision(in.File, d); err != nil {
				return err
			}
		}
	}
	return nil
}
