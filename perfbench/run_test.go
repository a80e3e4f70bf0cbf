package main

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestClassifyExplore(t *testing.T) {
	good := `{"num_rows": 5, "subgroups": [{}, {}]}`
	cases := []struct {
		name   string
		status int
		body   string
		err    error
		want   string
	}{
		{"ok", 200, good, nil, ""},
		{"transport", 0, "", errors.New("connection reset"), failTransport},
		{"non-200", 503, good, nil, failStatus},
		{"429", 429, `{"error": "busy"}`, nil, failStatus},
		{"cut body", 200, good[:len(good)-5], nil, failTruncated},
		{"truncated flag", 200, `{"truncated": true, "subgroups": [{}, {}]}`, nil, failTruncated},
		{"wrong count", 200, `{"subgroups": [{}]}`, nil, failCount},
	}
	for _, c := range cases {
		if got := classifyExplore(c.status, []byte(c.body), c.err, 2); got != c.want {
			t.Errorf("%s: classifyExplore = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestClassifyAppend(t *testing.T) {
	cases := []struct {
		name   string
		status int
		body   string
		err    error
		want   string
	}{
		{"ok", 200, `{"epoch": 7, "rows": 32, "total_rows": 100}`, nil, ""},
		{"transport", 0, "", errors.New("EOF"), failTransport},
		{"non-200", 500, `{"error": "append not durable"}`, nil, failStatus},
		{"cut body", 200, `{"epoch": 7, "ro`, nil, failTruncated},
		{"no epoch", 200, `{"rows": 32}`, nil, failTruncated},
		{"wrong count", 200, `{"epoch": 7, "rows": 31}`, nil, failCount},
	}
	for _, c := range cases {
		rep, got := classifyAppend(c.status, []byte(c.body), c.err, 32)
		if got != c.want {
			t.Errorf("%s: classifyAppend = %q, want %q", c.name, got, c.want)
		}
		if got == "" && rep.Epoch != 7 {
			t.Errorf("%s: epoch %d, want 7", c.name, rep.Epoch)
		}
	}
}

// TestExploreAccounting drives exploreOnce against a stub daemon that
// answers each request differently, and checks that every failure kind
// is counted against the attempts and kept out of the latency samples.
func TestExploreAccounting(t *testing.T) {
	replies := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write([]byte(tenSubgroups())) },
		func(w http.ResponseWriter) { http.Error(w, "boom", 500) },
		func(w http.ResponseWriter) { w.Write([]byte(tenSubgroups()[:40])) },
		func(w http.ResponseWriter) { w.Write([]byte(`{"subgroups": [{}]}`)) },
	}
	i := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replies[i%len(replies)](w)
		i++
	}))
	d := &daemon{base: srv.URL, client: srv.Client()}
	r := newRun("serve-warm", 1, 1, false, "", "")
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < len(replies); k++ {
		r.exploreOnce(context.Background(), d, []byte(`{}`), "id", int64(k), false, rng)
	}
	srv.Close()
	r.exploreOnce(context.Background(), d, []byte(`{}`), "id", 9, false, rng) // server gone

	if r.attempted != 5 || r.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", r.attempted, r.failed)
	}
	for _, reason := range []string{failStatus, failTruncated, failCount, failTransport} {
		if r.failures[reason] != 1 {
			t.Errorf("failures[%s] = %d, want 1 (all: %v)", reason, r.failures[reason], r.failures)
		}
	}
	if n := len(r.series(seriesExplore)); n != 1 {
		t.Errorf("%d latency samples, want 1 (failed requests carry no latency)", n)
	}
	r.check("output", errors.New("differs"))
	if r.attempted != 6 || r.failed != 5 || r.correct() {
		t.Errorf("a failed check must count as a failed operation and make the run incorrect")
	}
}

func tenSubgroups() string {
	return `{"num_rows": 100, "subgroups": [` + strings.TrimSuffix(strings.Repeat(`{"itemset": "a"},`, topK), ",") + `]}`
}

func TestParseMetrics(t *testing.T) {
	body := "# HELP x\n# TYPE x counter\nserver_explores 12\ngo_gc_heap_allocs_bytes 8.1251064e+07\n" +
		"server_request_seconds_bucket{le=\"0.1\"} 3\nwal_fsync_seconds_sum 0.5 1700000000\n"
	m := parseMetrics([]byte(body))
	if m["server_explores"] != 12 || m["go_gc_heap_allocs_bytes"] != 8.1251064e7 || m["wal_fsync_seconds_sum"] != 0.5 {
		t.Errorf("parseMetrics = %v", m)
	}
	if _, ok := m["server_request_seconds_bucket"]; ok {
		t.Error("labelled samples must be skipped")
	}
	if d := delta(map[string]float64{}, m, "server_explores"); d != 12 {
		t.Errorf("delta from an absent series = %v, want 12", d)
	}
}
