package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one hdivexplorerd child process listening on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	scanDone chan struct{}
	exited   bool
	client   *http.Client
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startDaemon spawns the daemon binary with args plus a loopback listener
// on a free port, and returns once the daemon has announced its address.
// The daemon's log goes to logPath. The child dies with the benchmark
// should the benchmark itself be killed.
func startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	pipe, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{
		cmd:      cmd,
		scanDone: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		defer logf.Close()
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); !found && m != nil {
				found = true
				addr <- m[1]
			}
		}
		_, _ = io.Copy(logf, pipe) // an over-long line ends the scan; keep draining
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.scanDone:
		d.wait()
		return nil, fmt.Errorf("daemon exited before listening; see %s", logPath)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not announce a listener within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		status, _, _, err := d.do(ctx, "GET", "/readyz", nil, nil)
		if err == nil && status == 200 {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v (last status %d, err %v)", limit, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends one request and reads the whole reply.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, header map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// metrics scrapes /metrics into a map of unlabelled series.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	status, body, _, err := d.do(ctx, "GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseMetrics(body), nil
}

// parseMetrics reads Prometheus text exposition, keeping unlabelled
// samples only (labelled families are per-bucket or per-endpoint views
// the benchmark does not use).
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if sp := strings.IndexByte(val, ' '); sp >= 0 {
			val = val[:sp] // drop a timestamp
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta returns after[name] - before[name]; a series absent from a scrape
// has not been touched yet and counts as 0.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM from a /proc status file, in MB.
func peakRSSMB(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// stop asks the daemon to drain (SIGTERM) and waits for it, killing it
// if the drain overruns.
func (d *daemon) stop() error {
	if d.exited {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.wait()
	}
	done := make(chan error, 1)
	go func() { done <- d.wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

// kill ends the daemon at once (a crash, as far as it can tell) and waits.
// It is a no-op on a nil or exited daemon.
func (d *daemon) kill() {
	if d == nil || d.exited {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.wait()
}

func (d *daemon) wait() error {
	<-d.scanDone
	err := d.cmd.Wait()
	d.exited = true
	d.client.CloseIdleConnections()
	return err
}
