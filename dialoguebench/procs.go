package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"questpro/internal/obs"
)

// proc is one child process of the benchmark: a questprod or qpgate bound
// to a kernel-chosen loopback port.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	started time.Time
	ready   time.Duration // start → /readyz 200
	exited  chan struct{}
}

// children tracks every live child so a signal or an early exit can stop
// them all; Pdeathsig covers the benchmark itself being killed.
var children struct {
	sync.Mutex
	live map[*proc]bool
}

// startProc launches bin with args plus a loopback listen address, reads
// the resolved address from its JSON "listening" record and waits until
// /readyz answers 200.
func startProc(ctx context.Context, name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	offset, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*proc]bool{}
	}
	children.live[p] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is expected
		close(p.exited)
	}()

	addr, err := waitListening(ctx, p, logPath, offset)
	if err != nil {
		p.kill()
		return nil, err
	}
	p.url = "http://" + addr
	if err := p.waitReady(ctx); err != nil {
		p.kill()
		return nil, err
	}
	p.ready = time.Since(p.started)
	return p, nil
}

// waitListening polls the child's log for the record naming the address
// the kernel bound.
func waitListening(ctx context.Context, p *proc, logPath string, offset int64) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(logPath); err == nil && int64(len(data)) > offset {
			sc := bufio.NewScanner(bytes.NewReader(data[offset:]))
			for sc.Scan() {
				var rec struct{ Msg, Addr string }
				if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
					return rec.Addr, nil
				}
			}
		}
		select {
		case <-p.exited:
			return "", fmt.Errorf("%s exited before listening; see %s", p.name, logPath)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(p.pollInterval()):
		}
	}
	return "", fmt.Errorf("%s did not report its address within 30s", p.name)
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

func (p *proc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := probeClient.Get(p.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before ready", p.name)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(p.pollInterval()):
		}
	}
	return fmt.Errorf("%s not ready within 2m", p.name)
}

// pollInterval is fine while a cold start is still plausible, so a start
// of a few milliseconds is not rounded up to the poll interval.
func (p *proc) pollInterval() time.Duration {
	if time.Since(p.started) < 100*time.Millisecond {
		return 200 * time.Microsecond
	}
	return 2 * time.Millisecond
}

// kill sends SIGKILL and waits for the child to be reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if the child is already gone
	<-p.exited
	children.Lock()
	delete(children.live, p)
	children.Unlock()
}

// killAll stops every live child and waits for each.
func killAll() {
	children.Lock()
	live := make([]*proc, 0, len(children.live))
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.kill()
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// procStatusKB reads a "Key:  123 kB" field of /proc/<pid>/status.
func (p *proc) procStatusKB(key string) (float64, error) {
	return procField(fmt.Sprintf("/proc/%d/status", p.pid()), key+":")
}

// writeBytes is the child's write_bytes from /proc/<pid>/io: bytes it
// caused to be sent to the storage layer.
func (p *proc) writeBytes() (float64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", p.pid()), "write_bytes:")
}

func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// scrape fetches and parses the child's /metrics exposition.
func (p *proc) scrape() (map[string]*obs.MetricFamily, error) {
	resp, err := probeClient.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", p.name, resp.Status)
	}
	return obs.ParsePromText(resp.Body)
}

// dirSnapshotKB returns the sizes of the session snapshots in a data dir.
func dirSnapshotKB(dir string) ([]float64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(st.Size())/1024)
	}
	return out, nil
}
