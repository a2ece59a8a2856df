package simdperf

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env is the machine configuration a run was measured on. Runs are only
// comparable, and only pooled, within one Env (Go version and commit
// aside, which a comparison of two commits varies on purpose).
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// CurrentEnv describes this process and machine. The commit is read from
// the git checkout around the working directory, "unknown" outside one.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

// gitCommit resolves HEAD of the nearest enclosing .git directory without
// running git: a detached hash, a loose ref or a packed ref.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(gitDir, "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			// Without packed-refs the ref stays unresolved.
			packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					return hash
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// SameMachine reports why two environments' runs may not be pooled, or
// nil when they may.
func (e Env) SameMachine(o Env) error {
	if e.GOMAXPROCS != o.GOMAXPROCS || e.NumCPU != o.NumCPU || e.CPUModel != o.CPUModel {
		return fmt.Errorf("runs on different machines: GOMAXPROCS %d/%d, NumCPU %d/%d, CPU %q/%q",
			e.GOMAXPROCS, o.GOMAXPROCS, e.NumCPU, o.NumCPU, e.CPUModel, o.CPUModel)
	}
	return nil
}

// Document is one run's record: the workload and its settings, the
// environment, and the report.
type Document struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      Env     `json:"env"`
	Report
}
