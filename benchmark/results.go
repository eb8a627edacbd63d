package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json: the one place metric directions and bounds
// are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
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

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// meta is carried by every result file: enough to tell two files apart
// and to rerun either.
type meta struct {
	Commit       string   `json:"commit"`
	GoVersion    string   `json:"go_version"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NProc        int      `json:"nproc"`
	CPUModel     string   `json:"cpu_model"`
	Kernel       string   `json:"kernel"`
	DataDirFS    string   `json:"datadir_fs"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Quick        bool     `json:"quick"`
	DaemonFlags  []string `json:"daemon_flags"`
	BuildSeconds float64  `json:"go_build_seconds"`
	When         string   `json:"when"`
}

// fsNames maps statfs f_type magic numbers to names; anything else is
// printed in hex.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func collectMeta(root, dataDir string, bins *builtBins, o options) meta {
	m := meta{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, BuildSeconds: bins.buildSeconds,
		When: time.Now().UTC().Format(time.RFC3339),
		// Addresses and directories differ per daemon; the flag set does not.
		DaemonFlags: []string{"-addr", "127.0.0.1:<free>", "-admin", "127.0.0.1:<free>", "-logdir", "<datadir>/log", "-checkpoint-dir", "<datadir>/ckpt",
			"(disclose-quorum: primary adds -replicate 2, follower adds -join <primary>)"},
	}
	m.Commit = "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		name, ok := fsNames[int64(st.Type)]
		if !ok {
			name = fmt.Sprintf("0x%x", st.Type)
		}
		m.DataDirFS = name
	}
	return m
}

// runRecord is one run inside a result file.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

func (rep *report) record(seed int64) runRecord {
	return runRecord{
		Workload: rep.Workload, Seed: seed, Traced: rep.Traced, Correct: len(rep.Problems) == 0,
		Attempted: rep.Attempted, Failed: rep.Failed, Problems: rep.Problems,
		EndToEnd: rep.EndToEnd, Layers: rep.Layers,
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendHistory adds one line per run to the history file; it never
// rewrites a line that is already there.
func (f *resultFile) appendHistory(path string) error {
	h, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	for _, run := range f.Runs {
		line, err := json.Marshal(struct {
			Meta meta      `json:"meta"`
			Run  runRecord `json:"run"`
		}{f.Meta, run})
		if err != nil {
			h.Close()
			return err
		}
		if _, err := h.Write(append(line, '\n')); err != nil {
			h.Close()
			return err
		}
	}
	return h.Close()
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
