package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/api"
	"questpro/internal/obs"
)

// shape is how a workload deploys the program and how many closed-loop
// clients drive it.
type shape struct {
	clients int
	durable bool // questprod -data-dir
	gateway bool // reached through qpgate with one backend
}

var shapes = map[string]shape{
	wlAnalyst:  {clients: 1},
	wlDurable:  {clients: 1, durable: true, gateway: true},
	wlRecovery: {clients: 2, durable: true},
}

// stack is one deployment: questprod, optionally behind qpgate, plus what
// its retired questprod incarnations reported before they were stopped.
type stack struct {
	bins    string
	dir     string // private run directory
	dataDir string
	traced  bool
	qp      *proc
	gate    *proc

	qpMetrics  []map[string]*obs.MetricFamily // one scrape per retired questprod
	storeBytes float64                        // bytes retired questprods wrote, minus their log and trace journal
	otherBytes int64                          // log and trace journal size when the live questprod started
}

func (s *stack) qpArgs() []string {
	args := []string{}
	if s.dataDir != "" {
		args = append(args, "-data-dir", s.dataDir)
	}
	if s.traced {
		args = append(args, "-trace-log", s.journal(), "-trace-ring", "64")
	} else {
		args = append(args, "-no-trace")
	}
	return args
}

func startStack(ctx context.Context, bins, dir string, sh shape, traced bool) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{bins: bins, dir: dir, traced: traced}
	if sh.durable {
		s.dataDir = filepath.Join(dir, "data")
	}
	if err := s.startQP(ctx); err != nil {
		return nil, err
	}
	if sh.gateway {
		args := []string{"-backends", s.qp.url}
		if traced {
			args = append(args, "-trace-ring", "64")
		} else {
			args = append(args, "-no-trace")
		}
		g, err := startProc(ctx, "qpgate", filepath.Join(bins, "qpgate"), filepath.Join(dir, "qpgate.log"), args...)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.gate = g
	}
	return s, nil
}

func (s *stack) journal() string { return filepath.Join(s.dir, "questprod.trace.jsonl") }
func (s *stack) qpLog() string   { return filepath.Join(s.dir, "questprod.log") }

// logBytes is the size of what questprod writes besides its store.
func (s *stack) logBytes() int64 {
	var n int64
	for _, f := range []string{s.journal(), s.qpLog()} {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func (s *stack) startQP(ctx context.Context) error {
	s.otherBytes = s.logBytes()
	p, err := startProc(ctx, "questprod", filepath.Join(s.bins, "questprod"), s.qpLog(), s.qpArgs()...)
	if err != nil {
		return err
	}
	s.qp = p
	return nil
}

// target is where clients send requests.
func (s *stack) target() string {
	if s.gate != nil {
		return s.gate.url
	}
	return s.qp.url
}

// retireQP records the questprod's counters and the bytes it wrote to its
// store, then SIGKILLs it. /proc/<pid>/io write_bytes also counts the
// process's log and trace journal, so their growth is subtracted.
func (s *stack) retireQP() error {
	m, err := s.qp.scrape()
	if err != nil {
		return err
	}
	wb, err := s.qp.writeBytes()
	if err != nil {
		return err
	}
	s.qpMetrics = append(s.qpMetrics, m)
	s.storeBytes += max(0, wb-float64(s.logBytes()-s.otherBytes))
	s.qp.kill()
	s.qp = nil
	return nil
}

// restartQP SIGKILLs questprod and starts it again on the same data dir,
// returning the restart's start → /readyz time.
func (s *stack) restartQP(ctx context.Context) (time.Duration, error) {
	if err := s.retireQP(); err != nil {
		return 0, err
	}
	if err := s.startQP(ctx); err != nil {
		return 0, err
	}
	return s.qp.ready, nil
}

// rssMB is questprod's peak resident set so far (VmHWM).
func (s *stack) rssMB() (float64, error) {
	kb, err := s.qp.procStatusKB("VmHWM")
	return kb / 1024, err
}

func (s *stack) stop() {
	if s.gate != nil {
		s.gate.kill()
	}
	if s.qp != nil {
		s.qp.kill()
	}
}

// measurement is what one timed phase leaves behind.
type measurement struct {
	rec       *recorder
	rt        *countingTransport
	wall      time.Duration
	recoveryS []float64          // questprod restart → /readyz
	rssMB     []float64          // questprod VmHWM readings
	forests   [][]*api.TraceNode // gateway-assembled traces, traced durable runs only
}

// runWorkload drives the workload against st until the deadline. With
// warmUp it first makes one untimed pass over the pool, on connections and
// counters of its own; a request that fails in it fails the run.
func runWorkload(ctx context.Context, wl string, st *stack, in *Inputs, cs controlSet, seconds time.Duration, seed int64, warmUp bool) (*measurement, error) {
	if warmUp {
		w, err := measure(ctx, wl, st, in, cs, 0, seed)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if w.rec.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d requests failed: %v", w.rec.failed, w.rec.errs)
		}
	}
	return measure(ctx, wl, st, in, cs, seconds, seed)
}

// measure drives whole passes over the pool until seconds have passed.
func measure(ctx context.Context, wl string, st *stack, in *Inputs, cs controlSet, seconds time.Duration, seed int64) (*measurement, error) {
	sh := shapes[wl]
	hc, rt := newHTTPClient(sh.clients)
	defer hc.CloseIdleConnections()
	m := &measurement{rec: &recorder{}, rt: rt}
	start := time.Now()
	deadline := start.Add(seconds)
	var err error
	switch wl {
	case wlAnalyst:
		err = runAnalyst(ctx, in, cs, deadline, newClient(st.target(), hc, m.rec, seed))
	case wlDurable:
		err = runDurable(ctx, st, in, cs, deadline, newClient(st.target(), hc, m.rec, seed), m)
	case wlRecovery:
		err = runRecovery(ctx, st, in, cs, deadline, hc, m, seed)
	}
	m.wall = time.Since(start)
	return m, err
}

// runAnalyst: one user works through the sessions of the pool in order,
// every dialogue of a session on one upload, in whole passes over the pool
// until the deadline: every dialogue is then measured equally often, and
// the tail quantiles do not move with where the deadline cuts a pass.
func runAnalyst(ctx context.Context, in *Inputs, cs controlSet, deadline time.Time, c *client) error {
	n := 0
	for _, si := range in.Sessions {
		n += len(si.Dialogues)
	}
	for {
		start := time.Now()
		for i, si := range in.Sessions {
			c.key = fmt.Sprint("s", i)
			id, err := c.create(ctx, in.Ontologies[si.Ontology])
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			for j := range si.Dialogues {
				c.key = fmt.Sprintf("s%d.%d", i, j)
				if c.dialogue(ctx, id, &si.Dialogues[j], cs[i][j]) != nil {
					break
				}
			}
			_ = c.delete(ctx, id) // a failed delete is recorded as a failed request
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		c.rec.pass(n, start)
		if time.Now().After(deadline) {
			return nil
		}
	}
}

// runDurable: one user runs the pool's fresh-session dialogues in order,
// in whole passes until the deadline.
func runDurable(ctx context.Context, st *stack, in *Inputs, cs controlSet, deadline time.Time, c *client, m *measurement) error {
	for {
		start := time.Now()
		for i, si := range in.Sessions {
			c.key = fmt.Sprint("s", i)
			id, err := c.create(ctx, in.Ontologies[si.Ontology])
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			_ = c.dialogue(ctx, id, &si.Dialogues[0], cs[i][0])
			if kb, err := fileKB(filepath.Join(st.dataDir, id+".snap")); err == nil {
				c.rec.snapshotKB(kb)
			}
			if st.traced {
				t := time.Now()
				tr, err := c.cl.Trace(ctx, id)
				c.rec.span("trace", t, err)
				if err == nil {
					m.forests = append(m.forests, tr.Traces)
				}
			}
			_ = c.delete(ctx, id)
		}
		c.rec.pass(len(in.Sessions), start)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil
		}
	}
}

func fileKB(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()) / 1024, nil
}

// parked is a dialogue waiting on its first answer across a restart.
type parked struct {
	id     string
	ev     *api.FeedbackResponse
	parkMs time.Duration
	ok     bool
}

// runRecovery repeats: park every pool session with its first question
// delivered, SIGKILL questprod, restart it on the same data dir, answer
// every dialogue to Done, delete the sessions.
func runRecovery(ctx context.Context, st *stack, in *Inputs, cs controlSet, deadline time.Time, hc *http.Client, m *measurement, seed int64) error {
	rec := m.rec
	n := len(in.Sessions)
	clients := shapes[wlRecovery].clients
	// each runs f(i) for every pool index, spread over the clients.
	each := func(f func(c *client, i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
					f(c, i)
				}
			}(newClient(st.target(), hc, rec, seed+int64(w)))
		}
		wg.Wait()
	}
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		start := time.Now()
		ps := make([]parked, n)
		each(func(c *client, i int) {
			si := in.Sessions[i]
			c.key = fmt.Sprint("s", i)
			id, err := c.create(ctx, in.Ontologies[si.Ontology])
			if err != nil {
				return
			}
			ev, d, err := c.park(ctx, id, &si.Dialogues[0])
			if err != nil {
				rec.dialogue(c.key, 0, err)
				return
			}
			ps[i] = parked{id: id, ev: ev, parkMs: d, ok: true}
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		kbs, err := dirSnapshotKB(st.dataDir)
		if err != nil {
			return err
		}
		for _, kb := range kbs {
			rec.snapshotKB(kb)
		}
		ready, err := st.restartQP(ctx)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		m.recoveryS = append(m.recoveryS, ready.Seconds())
		each(func(c *client, i int) {
			p := ps[i]
			if !p.ok {
				return
			}
			c.key = fmt.Sprint("s", i)
			rest, err := c.finish(ctx, p.id, &in.Sessions[i].Dialogues[0], p.ev, cs[i][0])
			rec.dialogue(c.key, float64((p.parkMs+rest).Nanoseconds())/1e6, err)
			_ = c.delete(ctx, p.id)
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Peak RSS of the restarted process, read before it parks the next
		// batch: restore plus resumed dialogues.
		rss, err := st.rssMB()
		if err != nil {
			return err
		}
		m.rssMB = append(m.rssMB, rss)
		rec.pass(n, start)
	}
	return nil
}
