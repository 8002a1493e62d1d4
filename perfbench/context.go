package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runContext is the record of where and how a run was made, printed with
// every report so two reports can be told apart.
type runContext struct {
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	SF           float64 `json:"sf"`
	DOP          int     `json:"dop"`
	MemBudget    int64   `json:"mem_budget_bytes"`
	Clients      int     `json:"clients"`
	WorkloadSeed uint64  `json:"workload_seed"`
	DataSeed     uint64  `json:"data_seed"`
	Seconds      int     `json:"run_seconds"`
	Trace        bool    `json:"trace"`
}

func newRunContext(w workload, seed uint64, seconds int, trace bool) runContext {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return runContext{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceSHA256: sourceDigest("."),
		Workload: w.name, SF: w.sf, DOP: dop, MemBudget: w.budget, Clients: w.clients,
		WorkloadSeed: seed, DataSeed: dataSeed, Seconds: seconds, Trace: trace,
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

// sourceDigest hashes the Go sources and module files under root, so a
// report identifies the code it measured even where there is no commit.
// Hidden directories (the build directory among them) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path + "\x00"))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS sets the kernel's resident-set high-water mark (VmHWM) of
// this process back to its current resident set, so the next
// readPeakRSSMB covers only what ran in between. It reports whether the
// kernel took the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// readPeakRSSMB reads VmHWM from /proc/self/status.
func readPeakRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), from
// getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
