package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/obs"
)

// ingest-live settings. The append stream is open loop on a fixed
// schedule: each period, appendsPerPeriod batches fall due at an even
// pace over the first appendBurst of it, then the stream is quiet for the
// rest of the period, longer than the drift monitor's debounce, so the
// background re-mine runs once per period. The daemon keeps -wal-sync at
// its default, always; small WAL segments make the window see segment
// rotation and snapshot compaction.
const (
	appendPeriod     = time.Second
	appendBurst      = 800 * time.Millisecond
	appendsPerPeriod = 50
	appendRate       = float64(appendsPerPeriod) / float64(appendPeriod/time.Second) // batches per second
	driftDebounce    = "100ms"
	// exploreThink is the explorer's pause between a reply and its next
	// request. Without it the explorer alone keeps both CPUs busy, every
	// append queues behind it, and a short slowdown of the host multiplies
	// append latency several times over.
	exploreThink    = 100 * time.Millisecond
	walSegmentBytes = "1048576"
)

// dueOffset is when append i of a round falls due, from the round's start.
func dueOffset(i int) time.Duration {
	return time.Duration(i/appendsPerPeriod)*appendPeriod + time.Duration(i%appendsPerPeriod)*appendBurst/appendsPerPeriod
}

// slipBoundMS bounds the append generator's own lateness (p99). A run
// above it is invalid: the schedule was not kept, so the table grew
// differently and the append figures do not describe the daemon.
const slipBoundMS = 25.0

const appendPath = "/v1/datasets/compas/rows"

// ackedBatch is one acknowledged append: the epoch it created and its
// index in the stream.
type ackedBatch struct {
	epoch uint64
	index int
}

// ingestLive: an open-loop append stream and a closed-loop explorer
// against a durable daemon recovered from a crash. An untimed priming
// phase appends a fixed set of batches and then kills the daemon; each of
// the run's rounds recovers a fresh copy of that log (set-up), measures
// its share of the window, and checks what the daemon acknowledged.
func ingestLive(ctx context.Context, r *run, bin string) error {
	csvPath := filepath.Join(r.dir, "compas.csv")
	batches, err := readBatches(filepath.Join(r.dir, "batches.jsonl"))
	if err != nil {
		return err
	}
	in := ingestInputs{csvPath: csvPath, prime: batches[:primeBatches], stream: batches[primeBatches:]}

	// Priming: a fixed set of appends, then a crash.
	primed := filepath.Join(r.dir, "wal-primed")
	d, err := startDaemon(ctx, bin, filepath.Join(r.dir, "daemon-prime.log"), in.args(primed)...)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	if err := d.waitReady(ctx, readyLimit); err != nil {
		return err
	}
	if status, body, _, err := d.do(ctx, "POST", "/v1/explore", fprBody, nil); classifyExplore(status, body, err, topK) != "" {
		return fmt.Errorf("priming explore failed: status %d, err %v", status, err)
	}
	for i, b := range in.prime {
		status, body, _, err := d.do(ctx, "POST", appendPath, b, nil)
		if _, reason := classifyAppend(status, body, err, batchRows); reason != "" {
			return fmt.Errorf("priming append %d failed (%s): status %d, err %v", i, reason, status, err)
		}
	}
	d.kill()

	deltas := counterDeltas{}
	var rss, replayRates []float64
	var epochs []uint64 // epochs the traced explores saw, over all rounds
	ops := 0.0
	share := time.Duration(r.seconds / rounds * float64(time.Second))
	for round := 0; round < rounds; round++ {
		r.round = round
		walDir := filepath.Join(r.dir, fmt.Sprintf("wal-%d", round))
		if err := copyDir(primed, walDir); err != nil {
			return err
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, bin, filepath.Join(r.dir, fmt.Sprintf("daemon-%d.log", round)), in.args(walDir)...)
		if err != nil {
			return err
		}
		if err := d.waitReady(ctx, readyLimit); err != nil {
			return err
		}
		setup := time.Since(t0).Seconds()
		r.sample("setup_s", setup)
		res, err := r.ingestRound(ctx, d, in, round, share)
		if err != nil {
			return err
		}
		replayRates = append(replayRates, res.replayed/setup)
		deltas.add(res.m0, res.m1)
		rss = append(rss, res.rss)
		ops += res.ops
		epochs = append(epochs, res.epochs...)
		last := round == rounds-1
		if d, err = r.checkIngest(ctx, d, bin, in, walDir, res, last, epochs); err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping daemon: %w", err)
		}
	}
	r.details["ops"] = ops

	slip := sortedCopy(r.series("append_slip_ms"))
	if p99 := percentile(slip, 0.99); p99 > slipBoundMS {
		r.invalidate(fmt.Sprintf("append generator slipped %.1f ms at p99, above the %.0f ms bound", p99, slipBoundMS))
	}
	if r.trace {
		r.serverLayers(deltas, ops)
		r.values["loadgen.late_p99_ms"] = percentile(slip, 0.99)
		r.values["wal.replayed_records_per_s"] = median(replayRates)
		return r.setTraceOverhead(seriesExplore, seriesExploreTraced)
	}
	if err := r.setLatency("append", "append_ms", tailWant); err != nil {
		return err
	}
	if err := r.setLatency("explore", seriesExplore, tailWant); err != nil {
		return err
	}
	r.values["op_p50_ms"] = r.values["append_p50_ms"]
	r.details["append_tail_ms"] = r.values["append_tail_ms"]
	delete(r.values, "append_p50_ms")
	delete(r.values, "append_tail_ms")
	r.setRate("explore_per_s", seriesExplore, share)
	r.values["setup_s"] = median(r.series("setup_s"))
	r.values["alloc_mb_per_op"] = deltas["go_gc_heap_allocs_bytes"] / ops / 1e6
	r.values["peak_rss_mb"] = median(rss)
	return nil
}

// fprBody is ingest-live's explore request.
var fprBody = exploreBody("compas", "fpr", "")

// ingestInputs are ingest-live's generated inputs.
type ingestInputs struct {
	csvPath       string
	prime, stream [][]byte
}

// args are the daemon flags for a durable daemon logging under walDir.
func (in ingestInputs) args(walDir string) []string {
	return []string{"-dataset", "compas=" + in.csvPath, "-wal-dir", walDir,
		"-wal-segment-bytes", walSegmentBytes, "-drift-debounce", driftDebounce}
}

// ingestRoundResult is what one measured ingest-live window left behind.
type ingestRoundResult struct {
	m0, m1   map[string]float64
	replayed float64 // WAL records the recovery replayed
	rss      float64
	ops      float64
	epoch0   uint64 // epoch and row count when the window opened
	rows0    int
	acked    []ackedBatch // in epoch order
	epochs   []uint64     // epochs the traced explores saw
}

// ingestRound measures one share of the window on a recovered daemon.
func (r *run) ingestRound(ctx context.Context, d *daemon, in ingestInputs, round int, share time.Duration) (ingestRoundResult, error) {
	var res ingestRoundResult
	m, err := d.metrics(ctx)
	if err != nil {
		return res, err
	}
	res.replayed = m["wal_replayed_records"]
	if res.epoch0, res.rows0, err = datasetState(ctx, d); err != nil {
		return res, err
	}
	// One untimed explore, so the cache holds a universe to grow.
	if status, body, _, err := d.do(ctx, "POST", "/v1/explore", fprBody, nil); classifyExplore(status, body, err, topK) != "" {
		return res, fmt.Errorf("warm-up explore failed: status %d, err %v", status, err)
	}
	if res.m0, err = d.metrics(ctx); err != nil {
		return res, err
	}
	before := len(r.series(seriesExplore)) + len(r.series(seriesExploreTraced))
	r.spans.setOn(r.trace)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(share)
	var wg sync.WaitGroup
	var appends int
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.acked, appends = r.appendStream(ctx, d, in.stream, start, end)
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.seed*1000 + int64(round)))
		for k := int64(0); ctx.Err() == nil && time.Now().Before(end); k++ {
			traced := r.trace && int(time.Since(start)/sliceLen)%2 == 1
			ep := r.exploreOnce(ctx, d, fprBody, fmt.Sprintf("il-%d-%d-%d", r.seed, round, k), k, traced, rng)
			if e, err := strconv.ParseUint(ep, 10, 64); traced && err == nil {
				res.epochs = append(res.epochs, e)
			}
			select {
			case <-ctx.Done():
			case <-time.After(exploreThink):
			}
		}
	}()
	wg.Wait()
	r.spans.setOn(false)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if res.m1, err = d.metrics(ctx); err != nil {
		return res, err
	}
	if res.rss, err = d.peakRSSMB(); err != nil {
		return res, err
	}
	res.ops = float64(appends + len(r.series(seriesExplore)) + len(r.series(seriesExploreTraced)) - before)
	sort.Slice(res.acked, func(i, j int) bool { return res.acked[i].epoch < res.acked[j].epoch })
	return res, nil
}

// appendStream sends stream batches on the open-loop schedule from start
// until end, over one connection. Each latency runs from the batch's due
// time, so a stall also charges the batches queued behind it. Lateness is
// recorded twice: against the due time (append_late_ms) and against the
// earliest moment the one connection allowed (append_slip_ms, the
// generator's own delay). It returns the acknowledged batches and how
// many were sent.
func (r *run) appendStream(ctx context.Context, d *daemon, stream [][]byte, start, end time.Time) ([]ackedBatch, int) {
	var acked []ackedBatch
	free := start // when the connection became free for the next send
	i := 0
	for ; ctx.Err() == nil; i++ {
		due := start.Add(dueOffset(i))
		if !due.Before(end) {
			break
		}
		if i >= len(stream) {
			r.invalidate("append stream ran out of generated batches")
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return acked, i
			case <-time.After(wait):
			}
		}
		sent := time.Now()
		sp := r.spans.start("client.append", -1, int64(i))
		status, body, _, err := d.do(ctx, "POST", appendPath, stream[i], nil)
		r.spans.end(sp)
		done := time.Now()
		if ctx.Err() != nil {
			break
		}
		rep, reason := classifyAppend(status, body, err, batchRows)
		r.op(reason)
		r.sample("append_late_ms", msSince(due, sent))
		r.sample("append_slip_ms", msSince(maxTime(due, free), sent))
		free = done
		if reason == "" {
			r.sample("append_ms", msSince(due, done))
			acked = append(acked, ackedBatch{epoch: rep.Epoch, index: i})
		}
	}
	return acked, i
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// datasetState reads the compas dataset's epoch and row count.
func datasetState(ctx context.Context, d *daemon) (epoch uint64, rows int, err error) {
	status, body, _, err := d.do(ctx, "GET", "/v1/datasets", nil, nil)
	if err != nil {
		return 0, 0, err
	}
	if status != 200 {
		return 0, 0, fmt.Errorf("/v1/datasets answered %d", status)
	}
	var infos []struct {
		Name  string `json:"name"`
		Rows  int    `json:"rows"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		return 0, 0, err
	}
	for _, in := range infos {
		if in.Name == "compas" {
			return in.Epoch, in.Rows, nil
		}
	}
	return 0, 0, fmt.Errorf("dataset compas not served")
}

// checkIngest runs ingest-live's output checks after a round's window:
// the acknowledged epochs are exactly the ones after the window's first
// epoch, and the final epoch and row count equal that base plus the
// acknowledged appends. After the last round it also restarts the daemon
// on its log, checks the state survived, and compares the restarted
// daemon's reply with a library exploration over the base rows plus
// every acknowledged batch in acknowledgement order; in a traced run it
// then times the write-path layers on the batches and explores the
// windows saw. It returns the daemon now running.
func (r *run) checkIngest(ctx context.Context, d *daemon, bin string, in ingestInputs, walDir string, res ingestRoundResult, last bool, exploreEpochs []uint64) (*daemon, error) {
	var contiguous error
	for i, a := range res.acked {
		if a.epoch != res.epoch0+uint64(i)+1 {
			contiguous = fmt.Errorf("acknowledgement %d has epoch %d, want %d", i, a.epoch, res.epoch0+uint64(i)+1)
			break
		}
	}
	r.check("acked-epochs-contiguous", contiguous)
	wantEpoch, wantRows := res.epoch0+uint64(len(res.acked)), res.rows0+len(res.acked)*batchRows
	stateCheck := func() error {
		epoch, rows, err := datasetState(ctx, d)
		if err != nil {
			return err
		}
		if epoch != wantEpoch || rows != wantRows {
			return fmt.Errorf("epoch %d with %d rows, want epoch %d with %d rows", epoch, rows, wantEpoch, wantRows)
		}
		return nil
	}
	r.check("final-epoch", stateCheck())
	if !last {
		return d, nil
	}

	if err := d.stop(); err != nil {
		return d, fmt.Errorf("stopping daemon for the restart check: %w", err)
	}
	d, err := startDaemon(ctx, bin, filepath.Join(r.dir, "daemon-restart.log"), in.args(walDir)...)
	if err != nil {
		return d, err
	}
	if err := d.waitReady(ctx, readyLimit); err != nil {
		return d, err
	}
	r.check("final-epoch-after-restart", stateCheck())

	r.spans.setOn(r.trace)
	defer r.spans.setOn(false)
	var tracer *obs.Tracer
	if r.trace {
		tracer = obs.New()
	}
	base, err := readCSVTimed(r.spans, -1, -1, in.csvPath, tracer)
	if err != nil {
		return d, err
	}
	v := dataset.NewVersioned(base)
	for _, b := range in.prime {
		if err := appendBody(v, b); err != nil {
			return d, err
		}
	}
	want := map[uint64]bool{}
	for _, e := range exploreEpochs {
		want[e] = true
	}
	snaps := map[uint64]*dataset.Table{}
	note := func() {
		if tab, e := v.Snapshot(); want[e] {
			snaps[e] = tab
		}
	}
	note()
	for _, a := range res.acked {
		var b *dataset.Batch
		r.spans.stage("dataset.parse_batch", -1, int64(a.index), func() {
			b, err = dataset.ParseBatch(in.stream[a.index], v.Fields())
		})
		if err != nil {
			return d, err
		}
		if _, _, err := v.Append(b); err != nil {
			return d, err
		}
		note()
	}
	final, epoch := v.Snapshot()
	if epoch != wantEpoch {
		r.check("csv-equal-library", fmt.Errorf("library replay reached epoch %d, daemon %d", epoch, wantEpoch))
		return d, nil
	}
	status, got, _, err := d.do(ctx, "POST", "/v1/explore", exploreBody("compas", "fpr", "csv"), nil)
	if err != nil || status != 200 {
		r.check("csv-equal-library", fmt.Errorf("status %d, err %v", status, err))
		return d, nil
	}
	rep, _, err := libraryExplore(ctx, final, compasPlan("fpr"), r.spans, -1, -1, tracer, false)
	if err != nil {
		return d, err
	}
	wantCSV, _, err := encodeTimed(r.spans, -1, -1, rep, topK)
	if err != nil {
		return d, err
	}
	if string(got) != string(wantCSV) {
		r.check("csv-equal-library", fmt.Errorf("reply differs from library: %s", firstDiff(got, wantCSV)))
	} else {
		r.check("csv-equal-library", nil)
	}
	if r.trace {
		return d, r.replayExploreTails(snaps)
	}
	return d, nil
}

// appendBody parses an append body against v's schema and applies it.
func appendBody(v *dataset.Versioned, body []byte) error {
	b, err := dataset.ParseBatch(body, v.Fields())
	if err != nil {
		return err
	}
	_, _, err = v.Append(b)
	return err
}

// replayExploreTails times, for each explore the traced window saw, the
// two calls the daemon's incremental path makes on the rows appended
// since the previous explore: KSDrift over every continuous column and
// AppendUniverse.
func (r *run) replayExploreTails(snaps map[uint64]*dataset.Table) error {
	epochs := make([]uint64, 0, len(snaps))
	for e := range snaps {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) < 2 {
		return nil
	}
	prev := snaps[epochs[0]]
	b, _, err := libraryUniverse(prev, compasPlan("fpr"), r.spans, -1, -1, nil)
	if err != nil {
		return err
	}
	u := b.u
	for _, e := range epochs[1:] {
		tab := snaps[e]
		oldN := prev.NumRows()
		r.spans.stage("discretize.ks_drift", -1, int64(e), func() {
			for _, f := range tab.Fields() {
				if f.Kind == dataset.Continuous {
					vals := tab.Floats(f.Name)
					discretize.KSDrift(vals[:oldN], vals[oldN:])
				}
			}
		})
		out, _, err := core.BuildStatistic(tab, "fpr", "label", "prediction", "")
		if err != nil {
			return err
		}
		var grown *fpm.Universe
		r.spans.stage("fpm.append_universe", -1, int64(e), func() {
			grown, err = fpm.AppendUniverse(tab, u, out)
		})
		if err != nil {
			return err
		}
		u, prev = grown, tab
	}
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, dst)
	})
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
