// Command perfbench is the repository benchmark: it runs one named
// workload from a seed for a fixed time, checks the program's outputs,
// and prints every metric by name and unit, ending with a one-line JSON
// result. Run it from the repository root through run.sh, which builds
// the daemon and this command from the checkout first:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Each run also writes a self-describing artifact (host, seed, every
// sample, median and quartiles) under .perfbench/results. README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run, string) error{
	"serve-warm":    serveWarm,
	"ingest-live":   ingestLive,
	"pipeline-full": pipelineFull,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload   = flag.String("workload", "", "workload to run: serve-warm, ingest-live or pipeline-full")
		seed       = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds    = flag.Float64("seconds", 30, "length of the measured window in seconds")
		trace      = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		makeInputs = flag.String("make-inputs", "", "internal: write the workload's inputs into this directory and exit")
		coldJob    = flag.String("cold-job", "", "internal: run one pipeline-full job on this CSV, print its time and exit")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok && *coldJob == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want serve-warm, ingest-live or pipeline-full)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if *makeInputs != "" {
		if err := writeInputs(*workload, *seed, *seconds, *makeInputs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *coldJob != "" {
		return runColdJob(*coldJob)
	}

	rootDir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bin := filepath.Join(rootDir, ".perfbench", "bin", "hdivexplorerd")
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root through perfbench/run.sh: %v\n", err)
		return 2
	}
	runDir := filepath.Join(rootDir, ".perfbench", "runs", fmt.Sprintf("%s-s%d-t%d-%d", *workload, *seed, *trace, os.Getpid()))
	resultDir := filepath.Join(rootDir, ".perfbench", "results")
	for _, d := range []string{runDir, resultDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(runDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	r := newRun(*workload, *seed, *seconds, *trace == 1, rootDir, runDir)
	if err := generateInputs(ctx, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generating inputs:", err)
		return 1
	}
	if err := workloads[*workload](ctx, r, bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.trace {
		r.setLayerMedians()
	} else {
		r.values["ok_ratio"] = 1 - ratio(float64(r.failed), float64(r.attempted))
	}
	line, err := buildResultLine(specsFor(r.trace), r.values, r.attempted, r.failed, r.correct())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	base := filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))
	if err := r.writeArtifact(base+".json", line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing artifact:", err)
		return 1
	}
	if r.trace {
		if err := r.spans.write(base + "-spans.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, s := range specsFor(r.trace) {
		fmt.Printf("%-36s %14.4f %s\n", s.Name, line.Metrics[s.Name].Value, s.Unit)
	}
	for _, c := range r.checks {
		if !c.OK {
			fmt.Printf("check %s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	if len(r.invalid) > 0 {
		fmt.Printf("run invalid: %s\n", strings.Join(r.invalid, "; "))
	}
	if r.failed > 0 {
		fmt.Printf("failures: %s\n", r.failureSummary())
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

// generateInputs writes the run's seeded inputs from a child process, so
// the generator's memory stays out of this process's peak RSS.
func generateInputs(ctx context.Context, r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", r.workload,
		"-seed", fmt.Sprint(r.seed),
		"-seconds", fmt.Sprint(r.seconds),
		"-make-inputs", r.dir)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return err
	}
	r.details["inputs_s"] = time.Since(t0).Seconds()
	return nil
}
