package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// run accumulates one benchmark invocation: every latency sample, every
// operation's outcome, the output checks, and the metric values the
// workload derives from them.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	dir      string // this run's working directory under .perfbench

	spans *recorder

	mu      sync.Mutex // guards samples, byRound and the operation counts
	samples map[string][]float64
	// round is the measurement round samples are filed under; byRound
	// holds each series split by round. The workload sets round while no
	// client goroutine runs.
	round   int
	byRound map[string]map[int][]float64
	values  map[string]float64 // reported metrics (end-to-end or per-layer)
	details map[string]float64 // further figures for the artifact only

	attempted int
	failed    int
	failures  map[string]int
	checks    []checkResult
	valid     bool
	invalid   []string
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newRun(workload string, seed int64, seconds float64, trace bool, root, dir string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		root: root, dir: dir,
		spans:    newRecorder(),
		samples:  map[string][]float64{},
		byRound:  map[string]map[int][]float64{},
		values:   map[string]float64{},
		details:  map[string]float64{},
		failures: map[string]int{},
		valid:    true,
	}
}

// op counts one timed operation; a non-empty reason marks it failed.
func (r *run) op(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if reason != "" {
		r.failed++
		r.failures[reason]++
	}
}

// check records an output check. A failed check counts as a failed
// operation, so it shows in ok_ratio as well as in the correct flag.
func (r *run) check(name string, err error) {
	c := checkResult{Name: name, OK: err == nil}
	reason := ""
	if err != nil {
		c.Detail = err.Error()
		reason = "check:" + name
	}
	r.mu.Lock()
	r.checks = append(r.checks, c)
	r.mu.Unlock()
	r.op(reason)
}

// invalidate marks the run's figures as not to be trusted.
func (r *run) invalidate(why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.valid = false
	r.invalid = append(r.invalid, why)
}

func (r *run) sample(series string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[series] = append(r.samples[series], v)
	if r.byRound[series] == nil {
		r.byRound[series] = map[int][]float64{}
	}
	r.byRound[series][r.round] = append(r.byRound[series][r.round], v)
}

// perRound applies stat to each round's samples of a series and returns
// the median of the results: one round hit by a burst of host
// interference moves it no more than any other single round.
func (r *run) perRound(series string, stat func([]float64) float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var vals []float64
	for _, s := range r.byRound[series] {
		vals = append(vals, stat(s))
	}
	return median(vals)
}

// series returns a copy of the samples recorded under name.
func (r *run) series(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

func (r *run) correct() bool {
	return r.valid && r.failed == 0
}

// Failure reasons for served operations.
const (
	failTransport = "transport"
	failStatus    = "status"
	failTruncated = "truncated"
	failCount     = "count"
)

// exploreReply is the part of a JSON /v1/explore reply the checks read.
type exploreReply struct {
	Truncated bool              `json:"truncated"`
	Subgroups []json.RawMessage `json:"subgroups"`
}

// classifyExplore judges one JSON /v1/explore reply: a transport error,
// a non-200 status, a body that does not decode or is flagged truncated,
// or a subgroup count other than want is a failure. It returns the
// failure reason, "" for a good reply.
func classifyExplore(status int, body []byte, err error, want int) string {
	switch {
	case err != nil:
		return failTransport
	case status != 200:
		return failStatus
	}
	var rep exploreReply
	if json.Unmarshal(body, &rep) != nil || rep.Truncated {
		return failTruncated
	}
	if len(rep.Subgroups) != want {
		return failCount
	}
	return ""
}

// appendReply is the JSON reply to POST /v1/datasets/{name}/rows.
type appendReply struct {
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
}

// classifyAppend judges one append reply the same way; rows is the batch
// size the reply must acknowledge.
func classifyAppend(status int, body []byte, err error, rows int) (appendReply, string) {
	var rep appendReply
	switch {
	case err != nil:
		return rep, failTransport
	case status != 200:
		return rep, failStatus
	}
	if json.Unmarshal(body, &rep) != nil || rep.Epoch == 0 {
		return rep, failTruncated
	}
	if rep.Rows != rows {
		return rep, failCount
	}
	return rep, ""
}

// failureSummary renders failure counts by reason, for stderr.
func (r *run) failureSummary() string {
	var keys []string
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.failures[k]))
	}
	return strings.Join(parts, " ")
}
