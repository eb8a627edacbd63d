// Command benchmark is the repository's one benchmark: it starts the real
// cmd/passd binary as child processes with the shipped flags, drives them
// over protocol v3 from one load-generator process, prints every metric
// by name and unit, and fails the run when an output is wrong. README.md
// in this directory says what each workload and metric is for.
//
//	bash benchmark/run.sh --workload mixed --seed 1 --seconds 8 --trace 0   # what the driver runs
//	bash benchmark/run.sh -seed 1                # all five workloads, then the traced pass
//	bash benchmark/run.sh -repeat 5 -record      # … five times, appended to history.jsonl
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	dataDir  string
	binDir   string
	out      string
	traceOut string
	repeat   int
	record   bool
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two result files (old.json new.json) against BENCHMARK.json's bounds and exit non-zero on a regression")
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all five, then the traced pass")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "divide every size by ten")
	flag.StringVar(&o.dataDir, "datadir", "", "where daemons keep their data (default: a fresh directory under .bench_build)")
	flag.StringVar(&o.binDir, "bin", "", "directory holding prebuilt passd and passverify (default: build them)")
	flag.StringVar(&o.out, "out", "", "write the result file here (default .bench_build/result.json)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as JSON lines")
	flag.IntVar(&o.repeat, "repeat", 1, "run N times on seeds seed, seed+1, … and print median, quartiles and spread per metric")
	flag.BoolVar(&o.record, "record", false, "append one line per run to benchmark/history.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files: old.json new.json"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload != "" && !spec.hasWorkload(o.workload) {
		fatal(fmt.Errorf("unknown workload %q; BENCHMARK.json names %s", o.workload, strings.Join(workloadNames, ", ")))
	}
	os.Exit(execute(root, spec, o))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot locates the repository: the directory that holds
// BENCHMARK.json and benchmark/go.mod, at or above the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no directory above holds go.mod, BENCHMARK.json and benchmark/go.mod")
		}
		dir = parent
	}
}

// execute runs what the options ask for and returns the exit code: 0
// when every run was correct.
func execute(root string, spec *benchSpec, o options) int {
	buildDir := filepath.Join(root, ".bench_build")
	bins := &builtBins{passd: filepath.Join(o.binDir, "passd"), passverify: filepath.Join(o.binDir, "passverify")}
	// run.sh builds everything in one go command and says how long it took.
	bins.buildSeconds, _ = strconv.ParseFloat(os.Getenv("PASSBENCH_BUILD_SECONDS"), 64)
	if o.binDir == "" {
		var err error
		if bins, err = buildBins(filepath.Join(root, "benchmark"), filepath.Join(buildDir, "bin")); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "go build of passd and passverify: %.2fs (not part of setup_s)\n", bins.buildSeconds)
	}
	dataDir := o.dataDir
	if dataDir == "" {
		dataDir = filepath.Join(buildDir, fmt.Sprintf("data-%d", os.Getpid()))
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fatal(err)
	}
	if o.dataDir == "" {
		defer os.RemoveAll(dataDir)
	}

	file := resultFile{Meta: collectMeta(root, dataDir, bins, o)}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	code := 0
	for rep := 0; rep < o.repeat; rep++ {
		seed := o.seed + int64(rep)
		var reports []*report
		for _, wl := range workloads {
			if o.workload == "" || o.trace == 0 {
				reports = append(reports, runOne(wl, seed, 0, o, bins, dataDir, os.Stderr))
			}
		}
		for _, wl := range workloads {
			if o.workload == "" || o.trace == 1 {
				reports = append(reports, runOne(wl, seed, 1, o, bins, dataDir, os.Stderr))
			}
		}
		for _, rep := range reports {
			printReport(os.Stdout, spec, rep)
			file.Runs = append(file.Runs, rep.record(seed))
			if len(rep.Problems) > 0 {
				code = 1
			}
		}
	}
	if o.repeat > 1 {
		printSpread(os.Stdout, spec, file.Runs)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(buildDir, "result.json")
	}
	if err := file.write(out); err != nil {
		fatal(err)
	}
	if o.record {
		if err := file.appendHistory(filepath.Join(root, "benchmark", "history.jsonl")); err != nil {
			fatal(err)
		}
	}
	if o.workload != "" {
		// The driver reads the last line of standard output.
		last := file.Runs[len(file.Runs)-1]
		line, _ := json.Marshal(last.driverLine(spec))
		fmt.Println(string(line))
	}
	return code
}

// runOne runs one workload once, traced or not. A harness failure is
// folded into the report as a problem, so the caller has one path.
func runOne(wl string, seed int64, trace int, o options, bins *builtBins, dataDir string, log io.Writer) *report {
	sc := fullScale(o.seconds)
	if o.quick {
		sc = quickScale(o.seconds)
	}
	r := &runner{
		workload: wl, seed: seed, sc: sc, bins: bins, log: log,
		dataDir: filepath.Join(dataDir, fmt.Sprintf("%s-s%d-t%d", wl, seed, trace)),
	}
	defer os.RemoveAll(r.dataDir)
	start := time.Now()
	var (
		rep *report
		err error
	)
	if trace == 1 {
		rep, err = r.runTraced(o.traceOut)
	} else {
		rep, err = r.run()
	}
	if err != nil {
		rep = &report{Workload: wl, Attempted: 1, Failed: 1, Problems: []string{"run aborted: " + err.Error()},
			EndToEnd: map[string]metric{}, Layers: map[string]metric{}}
	}
	rep.Traced = trace == 1
	r.logf("finished in %.1fs (GOMAXPROCS %d)", time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	return rep
}

// printReport lists a run's metrics by name, value, unit and sample
// count, gated ones first in BENCHMARK.json's order.
func printReport(w *os.File, spec *benchSpec, rep *report) {
	kind := "tracing off"
	if rep.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", rep.Workload, kind, rep.Attempted, rep.Failed)
	line := func(name string, m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, e := range spec.EndToEnd {
		if m, ok := rep.EndToEnd[e.Name]; ok {
			line(e.Name, m)
		}
	}
	names := make([]string, 0, len(rep.Layers))
	for name := range rep.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, rep.Layers[name])
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}
