// Package bench is the evaluation harness: it re-runs the paper's §7
// experiments — Table 2 (elapsed-time overheads of PASSv2 vs ext3 and
// PA-NFS vs NFS, across five workloads) and Table 3 (space overheads),
// plus Table 1 (the record types each provenance-aware application
// collects) — and prints rows in the paper's format side by side with the
// published numbers. It also holds the measurements cmd/passbench writes
// as BENCH_*.json (Recover, Disclose, Replicate, Swarm, Verify) and the
// workloads two of the root package's Go benchmarks run (QueryDataset for
// BenchmarkPQLQuery, Serve for BenchmarkConcurrentQuery). Each measurement
// has one driver: passbench or a Go benchmark, never both.
package bench

import (
	"fmt"
	"time"

	"passv2/internal/kernel"
	"passv2/internal/vfs"
	"passv2/internal/workload"
	"passv2/pass"
)

// WorkloadFn runs one evaluation workload.
type WorkloadFn func(k *kernel.Kernel, cfg workload.Config, pa bool) (*workload.Stats, error)

// Workload names one of the five evaluation applications.
type Workload struct {
	Name string
	Run  WorkloadFn
	// Paper's measured overheads (percent) for the comparison columns.
	PaperLocal float64
	PaperNFS   float64
	// Paper's space overheads (percent of ext3 bytes).
	PaperProvPct  float64
	PaperTotalPct float64
}

// Workloads lists the evaluation applications in the paper's order.
var Workloads = []Workload{
	{
		Name: "Linux Compile",
		Run: func(k *kernel.Kernel, c workload.Config, _ bool) (*workload.Stats, error) {
			return workload.Compile(k, c)
		},
		PaperLocal:    15.6,
		PaperNFS:      11.0,
		PaperProvPct:  6.9,
		PaperTotalPct: 18.4,
	},
	{
		Name: "Postmark",
		Run: func(k *kernel.Kernel, c workload.Config, _ bool) (*workload.Stats, error) {
			return workload.Postmark(k, c)
		},
		PaperLocal:    11.5,
		PaperNFS:      16.8,
		PaperProvPct:  0.1,
		PaperTotalPct: 0.1,
	},
	{
		Name: "Mercurial Activity",
		Run: func(k *kernel.Kernel, c workload.Config, _ bool) (*workload.Stats, error) {
			return workload.Mercurial(k, c)
		},
		PaperLocal:    23.1,
		PaperNFS:      8.7,
		PaperProvPct:  1.8,
		PaperTotalPct: 3.4,
	},
	{
		Name: "Blast",
		Run: func(k *kernel.Kernel, c workload.Config, _ bool) (*workload.Stats, error) {
			return workload.Blast(k, c)
		},
		PaperLocal:    0.7,
		PaperNFS:      1.9,
		PaperProvPct:  1.1,
		PaperTotalPct: 3.8,
	},
	{
		Name:          "PA-Kepler",
		Run:           workload.Kepler2,
		PaperLocal:    1.4,
		PaperNFS:      2.5,
		PaperProvPct:  4.7,
		PaperTotalPct: 14.2,
	},
}

// FindWorkload looks a workload up by name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// RunLocal executes a workload on a local machine (the PASSv2-vs-ext3
// columns) and returns simulated elapsed time plus the machine for
// space accounting.
func RunLocal(w Workload, scale float64, provenance bool) (time.Duration, *pass.Machine, error) {
	m := pass.NewMachine(pass.Config{Provenance: provenance})
	if _, err := m.AddVolume("/data", 1); err != nil {
		return 0, nil, err
	}
	cfg := workload.Config{Scale: scale, Seed: 42, Dir: "/data"}
	m.ResetClock()
	if _, err := w.Run(m.Kernel, cfg, provenance); err != nil {
		return 0, nil, err
	}
	elapsed := m.Elapsed()
	return elapsed, m, nil
}

// RunNFS executes a workload against a loopback PA-NFS mount (the
// PA-NFS-vs-NFS columns). It returns elapsed time, the client machine and
// the file server (for provenance-space accounting).
func RunNFS(w Workload, scale float64, provenance bool) (time.Duration, *pass.Machine, *pass.FileServer, error) {
	m := pass.NewMachine(pass.Config{Provenance: provenance})
	var srv *pass.FileServer
	var err error
	if provenance {
		srv, err = pass.NewFileServer(7, m.Clock, vfs.DefaultCostModel())
	} else {
		srv, err = pass.NewPlainFileServer(m.Clock, vfs.DefaultCostModel())
	}
	if err != nil {
		return 0, nil, nil, err
	}
	if err := m.MountNFS("/mnt", srv.Addr()); err != nil {
		srv.Close()
		return 0, nil, nil, err
	}
	cfg := workload.Config{Scale: scale, Seed: 42, Dir: "/mnt"}
	m.ResetClock()
	if _, err := w.Run(m.Kernel, cfg, provenance); err != nil {
		srv.Close()
		return 0, nil, nil, err
	}
	elapsed := m.Elapsed()
	return elapsed, m, srv, nil
}

// Overhead computes the percentage overhead of with vs without.
func Overhead(without, with time.Duration) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (float64(with) - float64(without)) / float64(without)
}

// Pct formats a percentage the way the paper prints them.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
