package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// driverLine is the object the driver reads from the last line of
// standard output: exactly the end_to_end metrics of BENCHMARK.json for
// an untraced run, exactly the per_layer ones for a traced run.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (run runRecord) driverLine(spec *benchSpec) driverLine {
	want, have := spec.EndToEnd, run.EndToEnd
	if run.Traced {
		want, have = spec.PerLayer, run.Layers
	}
	d := driverLine{Correct: run.Correct, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]driverMetric{}}
	if d.Attempted < 1 {
		d.Attempted = 1
	}
	for _, m := range want {
		d.Metrics[m.Name] = driverMetric{have[m.Name].Value, m.Unit}
	}
	return d
}

// quartiles gives the first quartile, median and third quartile of v by
// the exclusive method, as Python's statistics.quantiles(v, n=4) does —
// the method the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// series gathers each metric's values per workload over the untraced (or
// traced) runs of a result file.
func series(runs []runRecord, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range runs {
		if run.Traced != traced {
			continue
		}
		ms := run.EndToEnd
		if traced {
			ms = run.Layers
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range ms {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// printSpread prints, per workload and end-to-end metric, the median, the
// quartiles and the spread — interquartile distance as a share of the
// median — next to the metric's bound.
func printSpread(w io.Writer, spec *benchSpec, runs []runRecord) {
	byWorkload := series(runs, false)
	fmt.Fprintf(w, "\n%-16s %-18s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := byWorkload[wl.Name][m.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound {
				flag = "  > bound"
			} else if m.Name != "setup_s" && spread > m.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Fprintf(w, "%-16s %-18s %3d %14.4f %14.4f %14.4f %7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, len(v), q1, q2, q3, 100*spread, 100*m.Bound, flag)
		}
	}
}

// compareFiles prints one row per workload and end-to-end metric — old
// median, new median, change in the metric's worse direction, bound — and
// returns 1 when any median worsened by more than its bound, when a run
// of the new file is incorrect, or when the new file's share of failed
// operations is higher on any workload.
func compareFiles(spec *benchSpec, oldPath, newPath string) int {
	oldF, err := readResults(oldPath)
	if err != nil {
		fatal(err)
	}
	newF, err := readResults(newPath)
	if err != nil {
		fatal(err)
	}
	oldS, newS := series(oldF.Runs, false), series(newF.Runs, false)
	code := 0
	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n", oldPath, oldF.Meta.Commit, newPath, newF.Meta.Commit)
	fmt.Printf("%-16s %-18s %14s %14s %9s %6s\n", "workload", "metric", "old median", "new median", "worse by", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := oldS[wl.Name][m.Name], newS[wl.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			_, om, _ := quartiles(o)
			_, nm, _ := quartiles(n)
			worse := 0.0
			if om != 0 {
				worse = (nm - om) / om
				if m.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+8.1f%% %5.0f%%%s\n", wl.Name, m.Name, om, nm, 100*worse, 100*m.Bound, verdict)
		}
		of, nf := failShare(oldF.Runs, wl.Name), failShare(newF.Runs, wl.Name)
		if nf > of {
			fmt.Printf("%-16s %-18s %14.6f %14.6f  REGRESSION: more operations fail\n", wl.Name, "fail_ratio", of, nf)
			code = 1
		}
	}
	for _, run := range newF.Runs {
		if !run.Correct {
			fmt.Printf("%s seed %d: INCORRECT: %v\n", run.Workload, run.Seed, run.Problems)
			code = 1
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: regression")
	}
	return code
}

// failShare is failed/attempted over a workload's untraced runs.
func failShare(runs []runRecord, workload string) float64 {
	var failed, attempted int64
	for _, run := range runs {
		if run.Workload == workload && !run.Traced {
			failed += run.Failed
			attempted += run.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
