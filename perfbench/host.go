package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is the machine and source a run measured, so a figure can be
// read without a transcript of the run.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// GitRevision is the checked-out commit when the checkout is a git
	// work tree, "" otherwise; SourceSHA256 digests every Go source and
	// module file of the checkout either way.
	GitRevision  string `json:"git_revision"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeHost(root string) hostInfo {
	return hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Kernel:       strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GitRevision:  gitRevision(root),
		SourceSHA256: sourceDigest(root),
	}
}

func readFile(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(raw)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRevision resolves .git/HEAD by reading the repository files, so it
// needs no git binary.
func gitRevision(root string) string {
	head := strings.TrimSpace(readFile(filepath.Join(root, ".git", "HEAD")))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if rev := strings.TrimSpace(readFile(filepath.Join(root, ".git", ref))); rev != "" {
		return rev
	}
	for _, line := range strings.Split(readFile(filepath.Join(root, ".git", "packed-refs")), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return ""
}

// sourceDigest hashes the path and contents of every .go, go.mod and
// go.sum file under root, skipping dot directories (VCS metadata and
// build output).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00" + readFile(p) + "\x00"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// artifact is the self-describing record of one run.
type artifact struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Result    resultLine         `json:"result"`
	Valid     bool               `json:"valid"`
	Invalid   []string           `json:"invalid,omitempty"`
	Checks    []checkResult      `json:"checks"`
	Failures  map[string]int     `json:"failures"`
	Details   map[string]float64 `json:"details"`
	Summaries map[string]summary `json:"summaries"`
	// Samples holds every per-operation sample of the run, by series.
	Samples map[string][]float64 `json:"samples"`
}

func (r *run) writeArtifact(path string, line resultLine) error {
	a := artifact{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		Host:      describeHost(r.root),
		Result:    line,
		Valid:     r.valid,
		Invalid:   r.invalid,
		Checks:    r.checks,
		Failures:  r.failures,
		Details:   r.details,
		Summaries: map[string]summary{},
		Samples:   r.samples,
	}
	for name, s := range r.samples {
		a.Summaries[name] = summarize(s)
	}
	raw, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
