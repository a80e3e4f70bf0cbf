package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// folktablesPlan is pipeline-full's exploration: numeric target income,
// st=0.1, s=0.02, two mining workers.
var folktablesPlan = explorePlan{stat: "numeric", target: "income", st: 0.1, s: 0.02, workers: 2}

// jobResult is one pipeline job's output digest and stage times.
type jobResult struct {
	csvSum    [sha256.Size]byte
	rep       *core.Report
	totalMS   float64
	exploreMS float64
	jsonBytes int
}

// pipelineJob runs one offline job on the CSV at path: ReadCSV →
// BuildStatistic → TreeSet → GeneralizedUniverse →
// ExploreUniverseMultiContext → WriteCSV and indented JSON of the full
// ranked report. A traced job passes a tracer and asks for the explain
// profile; its spans nest under one pipeline.job span.
func (r *run) pipelineJob(ctx context.Context, path string, op int64, traced bool) (jobResult, error) {
	var res jobResult
	var tracer *obs.Tracer
	if traced {
		tracer = obs.New()
	}
	job := r.spans.start("pipeline.job", -1, op)
	t0 := time.Now()
	var err error
	var rep *core.Report
	var csvOut []byte
	func() {
		defer r.spans.end(job)
		tab, e := readCSVTimed(r.spans, job, op, path, tracer)
		if err = e; err != nil {
			return
		}
		var ms map[string]float64
		rep, ms, err = libraryExplore(ctx, tab, folktablesPlan, r.spans, job, op, tracer, traced)
		if err != nil {
			return
		}
		res.exploreMS = ms["core.explore"]
		csvOut, res.jsonBytes, err = encodeTimed(r.spans, job, op, rep, 0)
	}()
	if err != nil {
		return res, err
	}
	res.totalMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	res.csvSum = sha256.Sum256(csvOut)
	res.rep = rep
	return res, nil
}

// checkRanking checks a full ranked report: every subgroup's support is
// at least s, and |divergence| never increases down the ranking.
func checkRanking(rep *core.Report, s float64) error {
	for i := range rep.Subgroups {
		sg := &rep.Subgroups[i]
		if sg.Support < s {
			return fmt.Errorf("subgroup %d {%s} has support %v below s=%v", i, sg.Itemset, sg.Support, s)
		}
		if i > 0 && math.Abs(sg.Divergence) > math.Abs(rep.Subgroups[i-1].Divergence) {
			return fmt.Errorf("|divergence| rises at rank %d: %v after %v", i, sg.Divergence, rep.Subgroups[i-1].Divergence)
		}
	}
	if len(rep.Subgroups) == 0 {
		return fmt.Errorf("empty ranking")
	}
	return nil
}

// coldJobs is how many fresh one-job processes measure pipeline-full's
// set-up time.
const coldJobs = 3

// pipelineFull: offline jobs over folktables CSVs of 100,000 rows, one
// at a time, in this process, rotating through the run's tables. Set-up
// is measured on fresh processes that each run one job.
func pipelineFull(ctx context.Context, r *run, _ string) error {
	path := func(k int) string { return filepath.Join(r.dir, fmt.Sprintf("folktables%d.csv", k%tables)) }
	for i := 0; i < coldJobs; i++ {
		cold, err := coldJob(ctx, path(i))
		if err != nil {
			return err
		}
		r.sample("setup_s", cold)
	}
	// One untimed job per table warms this process and gives the
	// reference output every later job on that table must reproduce.
	refs := make([]jobResult, tables)
	for k := range refs {
		ref, err := r.pipelineJob(ctx, path(k), -1, false)
		if err != nil {
			return err
		}
		r.check(fmt.Sprintf("ranking/%d", k), checkRanking(ref.rep, folktablesPlan.s))
		r.details[fmt.Sprintf("subgroups_%d", k)] = float64(len(ref.rep.Subgroups))
		refs[k] = ref
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	busy := 0.0
	jobs := 0
	for op := int64(0); time.Now().Before(end); op++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := int(op) % tables
		traced := r.trace && (op/tables)%2 == 1
		r.spans.setOn(traced)
		res, err := r.pipelineJob(ctx, path(k), op, traced)
		r.spans.setOn(false)
		if err != nil {
			return err
		}
		jobs++
		busy += res.totalMS / 1000
		// Checks run between jobs, outside the jobs' timing.
		reason := ""
		switch {
		case res.csvSum != refs[k].csvSum:
			reason = "check:csv-hash"
		case checkRanking(res.rep, folktablesPlan.s) != nil:
			reason = "check:ranking"
		}
		r.op(reason)
		series, explore := "job_ms", "explore_stage_ms"
		if traced {
			series, explore = "job_traced_ms", "explore_stage_traced_ms"
			r.addExplain(res.rep.Explain, 0)
			r.sample("core.subgroups", float64(len(res.rep.Subgroups)))
			r.sample("core.reply_bytes", float64(res.jsonBytes))
		}
		r.sample(series, res.totalMS)
		r.sample(explore, res.exploreMS)
	}
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return err
	}
	r.details["jobs"] = float64(jobs)
	r.details["busy_s"] = busy

	if r.trace {
		r.values["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / float64(jobs)
		return r.setTraceOverhead("job_ms", "job_traced_ms")
	}
	if err := r.setLatency("op", "job_ms", tailWant); err != nil {
		return err
	}
	r.details["op_tail_ms"] = r.values["op_tail_ms"]
	delete(r.values, "op_tail_ms")
	if err := r.setLatency("explore", "explore_stage_ms", tailWant); err != nil {
		return err
	}
	r.values["explore_per_s"] = float64(jobs) / busy
	r.values["setup_s"] = median(r.series("setup_s"))
	r.values["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(jobs) / 1e6
	r.values["peak_rss_mb"] = rss
	return nil
}

// coldJob runs one pipeline job in a fresh child process and returns the
// job's time in seconds as the child measured it.
func coldJob(ctx context.Context, path string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.CommandContext(ctx, self, "-cold-job", path).Output()
	if err != nil {
		return 0, fmt.Errorf("cold job: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("cold job output %q: %w", out, err)
	}
	return secs, nil
}

// runColdJob is the child side of coldJob.
func runColdJob(path string) int {
	r := newRun("pipeline-full", 0, 0, false, "", "")
	job, err := r.pipelineJob(context.Background(), path, 0, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cold job:", err)
		return 1
	}
	fmt.Println(job.totalMS / 1000)
	return 0
}
