// Command dialoguebench is the repository's end-to-end benchmark. It
// drives seeded feedback dialogues (§V of the paper) over HTTP against
// freshly built questprod and qpgate binaries, from one closed-loop load
// generator with no think time, and checks every dialogue against a
// control transcript computed in-process during set-up.
//
//	dialoguebench --workload analyst-sessions --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it runs the workload once untraced and once traced
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Run it
// through run.sh, which builds the binaries first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"questpro/internal/ntriples"
	"questpro/internal/obs"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bins     string
	work     string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	var secs float64
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are drawn from")
	flag.Float64Var(&secs, "seconds", 15, "length of the timed loop")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bins, "bin", ".bench_build/bin", "directory holding questprod and qpgate")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "directory for run files (data dirs, logs, traces)")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) (*result, error) {
	sh, ok := shapes[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	nproc := runtime.NumCPU()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v nproc=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, nproc, sh.clients)
	if sh.clients > nproc {
		return nil, fmt.Errorf("%s needs %d clients but nproc is %d", cfg.workload, sh.clients, nproc)
	}
	for _, b := range []string{"questprod", "qpgate"} {
		if _, err := os.Stat(filepath.Join(cfg.bins, b)); err != nil {
			return nil, fmt.Errorf("binary missing (build with run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return tracedRun(ctx, cfg, dir)
	}
	return plainRun(ctx, cfg, dir)
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(ctx context.Context, cfg config, dir string) (*result, error) {
	sh := shapes[cfg.workload]
	var (
		setups []float64
		in     *Inputs
		cs     controlSet
		st     *stack
	)
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.stop()
			st = nil
		}
		t := time.Now()
		var err error
		if in, err = Generate(cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		if cs, err = (&controlRun{}).controls(ctx, in); err != nil {
			return nil, err
		}
		if st, err = startStack(ctx, cfg.bins, filepath.Join(dir, fmt.Sprint("setup", rep)), sh, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	m, err := runWorkload(ctx, cfg.workload, st, in, cs, cfg.seconds, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	if cfg.workload != wlRecovery {
		rss, err := st.rssMB()
		if err != nil {
			return nil, err
		}
		m.rssMB = append(m.rssMB, rss)
	}

	res, vals := endToEndResult(m, cs, setups)
	report(res, m, vals, append(append([]metricDef(nil), endToEnd...), reported...))
	return res, nil
}

// endToEndResult computes the end-to-end metrics of a measurement. The run
// is correct only if no request failed and no dialogue differed from its
// control.
func endToEndResult(m *measurement, cs controlSet, setups []float64) (*result, map[string]float64) {
	rec := m.rec
	vals := map[string]float64{
		"setup_s":                median(setups),
		"dialogue_ms_p50":        quantile(rec.dialoguesPerInput(), 0.50),
		"dialogue_ms_p95":        quantile(rec.dialoguesPerInput(), 0.95),
		"turn_ms_p50":            quantile(rec.perInput("feedback", "feedback_answer"), 0.50),
		"turn_ms_p95":            quantile(rec.perInput("feedback", "feedback_answer"), 0.95),
		"turn_ms_p99":            quantile(rec.perInput("feedback", "feedback_answer"), 0.99),
		"infer_ms_p50":           quantile(rec.perInput("infer"), 0.50),
		"create_ms_p50":          quantile(rec.perInput("create"), 0.50),
		"dialogues_per_s":        median(rec.passRates),
		"questions_per_dialogue": questionsPerDialogue(cs),
		"recovery_s":             median(m.recoveryS),
		"server_rss_mb":          median(m.rssMB),
	}
	res := &result{Attempted: len(rec.spans), Failed: rec.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && rec.dialogues > 0
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: finite(vals[d.name]), Unit: d.unit}
	}
	return res, vals
}

// tracedRun runs the workload for half the time untraced, then for half
// the time with tracing on in both binaries, and reports the per-layer
// metrics of the traced half. Neither half warms up first: the binaries'
// counters must cover exactly the requests the benchmark timed.
func tracedRun(ctx context.Context, cfg config, dir string) (*result, error) {
	sh := shapes[cfg.workload]
	in, err := Generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	cr := &controlRun{probe: true}
	cs, err := cr.controls(ctx, in)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2

	st0, err := startStack(ctx, cfg.bins, filepath.Join(dir, "untraced"), sh, false)
	if err != nil {
		return nil, err
	}
	m0, err := runWorkload(ctx, cfg.workload, st0, in, cs, half, cfg.seed, false)
	st0.stop()
	if err != nil {
		return nil, err
	}

	st, err := startStack(ctx, cfg.bins, filepath.Join(dir, "traced"), sh, true)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	m, err := runWorkload(ctx, cfg.workload, st, in, cs, half, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	var gate []map[string]*obs.MetricFamily
	if st.gate != nil {
		g, err := st.gate.scrape()
		if err != nil {
			return nil, err
		}
		gate = append(gate, g)
	}
	if err := st.retireQP(); err != nil {
		return nil, err
	}
	journal, err := readJournal(st.journal())
	if err != nil {
		return nil, err
	}
	parse, parseSpans := parseTimes(in)
	tailMs, tailSteps, err := timeTail(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	lv := layerValues(layerInputs{
		in: in, m: m, untraced: m0, st: st, gate: gate, journal: journal,
		controls: cs, probes: cr.probes, parse: parse, tailMs: tailMs, tailSteps: tailSteps,
	})
	var spans []benchSpan
	for _, s := range m.rec.spans {
		s.kind = "http." + s.kind
		spans = append(spans, s)
	}
	spans = append(append(spans, cr.spans...), parseSpans...)
	if err := keepTraces(cfg, st, spans); err != nil {
		return nil, err
	}

	res := &result{
		Attempted: len(m0.rec.spans) + len(m.rec.spans),
		Failed:    m0.rec.failed + m.rec.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && m.rec.dialogues > 0 && m0.rec.dialogues > 0
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: finite(lv[d.name]), Unit: d.unit}
	}
	report(res, m, lv, perLayer)
	return res, nil
}

// keepTraces leaves the traced run's journals under .bench_build/traces
// for inspection: questprod's span journal and the benchmark's own spans
// around the calls it timed from outside (HTTP requests, in-process
// registry and feedback calls, ntriples.Parse).
func keepTraces(cfg config, st *stack, spans []benchSpan) error {
	out := filepath.Join(filepath.Dir(cfg.work), "traces", cfg.workload)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.Rename(st.journal(), filepath.Join(out, "questprod.trace.jsonl")); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.Create(filepath.Join(out, "bench.spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(obs.Node{Kind: "bench." + s.kind, StartUnixNs: s.startNs, DurationNs: s.durNs, Outcome: outcome(s.failed)}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func outcome(failed bool) string {
	if failed {
		return "error"
	}
	return "ok"
}

// parseTimes times ntriples.Parse on each ontology's exact create body:
// the median of three parses, in ms.
func parseTimes(in *Inputs) (map[string]float64, []benchSpan) {
	out := map[string]float64{}
	var spans []benchSpan
	for name, text := range in.Ontologies {
		var ms []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			_, err := ntriples.ParseString(text)
			sp := newSpan("ntriples.parse", t, err)
			spans = append(spans, sp)
			ms = append(ms, float64(sp.durNs)/1e6)
		}
		out[name] = median(ms)
	}
	return out, spans
}

func questionsPerDialogue(cs controlSet) float64 {
	q, n := 0, 0
	for _, s := range cs {
		for _, tr := range s {
			q += len(tr.Questions)
			n++
		}
	}
	return ratio(float64(q), float64(n))
}

// report prints the human-readable summary above the JSON line.
func report(res *result, m *measurement, vals map[string]float64, defs []metricDef) {
	rec := m.rec
	fmt.Printf("# dialogues=%d requests=%d failed=%d failed_share=%.4f attempts=%d retries=%d refused429=%d unavailable503=%d server5xx=%d transport_errors=%d wall_s=%.2f\n",
		rec.dialogues, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)),
		m.rt.attempts.Load(), m.rt.attempts.Load()-int64(len(rec.spans)), m.rt.refused.Load(),
		m.rt.unavailable.Load(), m.rt.serverErr.Load(), m.rt.transportErr.Load(), m.wall.Seconds())
	for _, e := range rec.errs {
		fmt.Printf("# error: %s\n", e)
	}
	for _, d := range defs {
		line := fmt.Sprintf("# %-40s %14.4f %s", d.name, vals[d.name], d.unit)
		if d.moves != "" {
			line += "  (moves " + d.moves + ")"
		}
		if d.note != "" {
			line += "  (not gated: " + d.note + ")"
		}
		fmt.Println(line)
	}
}

// quantile is the nearest-rank q-quantile; +Inf samples (failed requests)
// sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// finite keeps a failed run's +Inf latencies encodable; such a run reports
// correct=false anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}
