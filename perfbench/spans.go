package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, the
// operation it belongs to, the span that caused it, and its interval in
// nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. It is
// switched on only for the traced part of a traced run; while off, start
// returns -1 and end ignores it.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// start opens a span under parent (-1 for none) for operation op.
func (r *recorder) start(name string, parent int, op int64) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now, EndNS: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= 0 && id < len(r.spans) {
		r.spans[id].EndNS = now
	}
}

// stage runs fn as one span under parent and returns its wall time in
// milliseconds, measured whether or not the recorder is on.
func (r *recorder) stage(name string, parent int, op int64, fn func()) float64 {
	id := r.start(name, parent, op)
	t0 := time.Now()
	fn()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	r.end(id)
	return ms
}

// selfMS returns every closed span's self time in milliseconds, keyed by
// span name: its duration minus the part of it its child spans cover.
func (r *recorder) selfMS() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		if s.EndNS < 0 {
			continue
		}
		self := s.EndNS - s.StartNS - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	raw, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
