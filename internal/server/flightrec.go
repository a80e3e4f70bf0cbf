package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FlightRecord is one request's compact flight-recorder entry: enough to
// reconstruct what the daemon was serving around an incident without
// retaining full traces. Recorded for every exploration request,
// including rejected ones.
type FlightRecord struct {
	// Seq is the record's position in the recorder's lifetime sequence
	// (monotonic; gaps mean the record rotated out of the ring, or lost its
	// slot to a newer record that wrapped around first).
	Seq uint64 `json:"seq"`
	// ID is the request's correlation ID; Endpoint the handler that served
	// it ("explore" or "explore_batch").
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	// Dataset and Stat key the exploration; empty when the request was
	// rejected before resolving.
	Dataset string `json:"dataset,omitempty"`
	Stat    string `json:"stat,omitempty"`
	// Status is the request outcome: done, truncated, cancelled, error or
	// rejected (back-pressure or malformed body).
	Status string `json:"status"`
	// LatencyNS is the end-to-end handler latency; UnixNano the completion
	// time.
	LatencyNS int64 `json:"latency_ns"`
	UnixNano  int64 `json:"unix_nano"`
	// Truncated and CacheHit mirror the report flags; Candidates,
	// Itemsets and Subgroups are the top-level explain numbers.
	Truncated  bool  `json:"truncated,omitempty"`
	CacheHit   bool  `json:"cache_hit,omitempty"`
	Candidates int64 `json:"candidates,omitempty"`
	Itemsets   int64 `json:"itemsets,omitempty"`
	Subgroups  int   `json:"subgroups,omitempty"`
}

// SlowCapture retains the full trace and explain profile of one slow
// request, alongside its flight record.
type SlowCapture struct {
	Record  FlightRecord `json:"record"`
	Explain *obs.Explain `json:"explain,omitempty"`

	trace *obs.Trace
}

// flightRecorder is the always-on request ring plus the N-slowest
// capture. The ring is lock-free: record claims a sequence number with one
// atomic increment and publishes an immutable record into its slot with a
// pointer swap, so readers never see a record mid-write and the
// per-request cost is independent of readers; only the (rare, explicitly
// slow) captures take a mutex.
type flightRecorder struct {
	slots  []atomic.Pointer[FlightRecord]
	cursor atomic.Uint64 // next sequence number to claim

	threshold time.Duration // capture requests at least this slow
	slowCap   int

	mu   sync.Mutex
	slow []*SlowCapture // sorted by latency descending, at most slowCap
}

// newFlightRecorder sizes the ring and the slow capture. size and keep
// are assumed validated (positive) by the server's Config handling.
func newFlightRecorder(size, keep int, threshold time.Duration) *flightRecorder {
	return &flightRecorder{
		slots:     make([]atomic.Pointer[FlightRecord], size),
		threshold: threshold,
		slowCap:   keep,
	}
}

// record appends rec to the ring. Lock-free: one atomic add to claim the
// sequence number, then a compare-and-swap of the slot's record pointer.
// A slot only ever moves forward in sequence: if a newer record (one that
// wrapped the ring while this writer was delayed) already holds it, rec
// is dropped.
func (f *flightRecorder) record(rec FlightRecord) {
	if f == nil {
		return
	}
	seq := f.cursor.Add(1) - 1
	rec.Seq = seq
	slot := &f.slots[seq%uint64(len(f.slots))]
	for {
		old := slot.Load()
		if old != nil && old.Seq > seq {
			return
		}
		if slot.CompareAndSwap(old, &rec) {
			return
		}
	}
}

// recorded returns the lifetime count of record calls (including any
// dropped under contention).
func (f *flightRecorder) recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.cursor.Load()
}

// snapshot copies the ring's published records, newest first. Each
// record is copied whole, but the set is a consistent sample, not a
// transactional view.
func (f *flightRecorder) snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	n := uint64(len(f.slots))
	head := f.cursor.Load()
	out := make([]FlightRecord, 0, n)
	count := head
	if count > n {
		count = n
	}
	for i := uint64(0); i < count; i++ {
		// The slot may hold a newer wrap's record or, while its writer is
		// still publishing, the record it replaces; keep whatever it holds
		// (the record's own Seq says which request it describes).
		if rec := f.slots[(head-1-i)%n].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// noteSlow offers a completed request to the slow capture: requests at or
// over the latency threshold keep their full trace and explain profile,
// competing for the slowCap slots by latency.
func (f *flightRecorder) noteSlow(rec FlightRecord, trace *obs.Trace) {
	if f == nil || f.threshold <= 0 || time.Duration(rec.LatencyNS) < f.threshold {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.slow) >= f.slowCap && rec.LatencyNS <= f.slow[len(f.slow)-1].Record.LatencyNS {
		return // faster than everything already captured
	}
	f.slow = append(f.slow, &SlowCapture{Record: rec, Explain: obs.NewExplain(trace), trace: trace})
	sort.SliceStable(f.slow, func(a, b int) bool {
		return f.slow[a].Record.LatencyNS > f.slow[b].Record.LatencyNS
	})
	if len(f.slow) > f.slowCap {
		f.slow = f.slow[:f.slowCap]
	}
}

// slowList returns the captured slow requests, slowest first.
func (f *flightRecorder) slowList() []*SlowCapture {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*SlowCapture(nil), f.slow...)
}

// debugRequestsReply is the GET /v1/debug/requests reply.
type debugRequestsReply struct {
	// RingSize is the recorder's capacity; Recorded the lifetime request
	// count (so Recorded − len(Recent) requests have rotated out).
	RingSize int    `json:"ring_size"`
	Recorded uint64 `json:"recorded"`
	// SlowThresholdMS is the slow-capture latency bar (0 = capture off).
	SlowThresholdMS int64 `json:"slow_threshold_ms"`
	// Recent holds the ring's stable records, newest first. Slow holds the
	// retained slow captures with their explain profiles, slowest first.
	Recent []FlightRecord `json:"recent"`
	Slow   []*SlowCapture `json:"slow,omitempty"`
}

// handleDebugRequests dumps the flight recorder: the compact per-request
// ring plus the retained slow captures. This is the "what was the daemon
// doing" incident endpoint — always on, bounded memory, no configuration
// needed.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "debug_requests").Add(1)
	reply := debugRequestsReply{
		RingSize:        len(s.flight.slots),
		Recorded:        s.flight.recorded(),
		SlowThresholdMS: s.flight.threshold.Milliseconds(),
		Recent:          s.flight.snapshot(),
		Slow:            s.flight.slowList(),
	}
	if reply.Recent == nil {
		reply.Recent = []FlightRecord{}
	}
	writeJSON(w, http.StatusOK, reply)
}

// slowTrace returns the retained trace of a captured request by ID, or
// nil. Lets /v1/trace/{id} and /v1/explain/{id} answer for slow requests
// that have already rotated out of the recent-request ring.
func (f *flightRecorder) slowTrace(id string) *obs.Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.slow {
		if c.Record.ID == id {
			return c.trace
		}
	}
	return nil
}
