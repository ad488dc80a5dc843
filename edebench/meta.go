package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runMeta describes the machine and the code a result was measured on.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Network    string  `json:"network"`
}

// printMeta prints the run's metadata as one JSON line.
func printMeta(cfg runConfig) {
	meta := runMeta{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		Commit:     commit(cfg.root),
		SourceHash: sourceHash(cfg.root),
		Network:    "loopback 127.0.0.1: client and process under test share this host; no real link is crossed",
	}
	if cfg.w.scan {
		meta.Network = "none: the campaign resolves over the in-process simulated network"
	}
	line, _ := json.Marshal(map[string]runMeta{"meta": meta}) // plain struct: cannot fail
	os.Stdout.Write(append(line, '\n'))
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, when it is a git work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return string(bytes.TrimSpace(out))
}

// sourceHash digests every Go source and go.mod under root (hidden
// directories skipped), identifying the code even without git.
func sourceHash(root string) string {
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
