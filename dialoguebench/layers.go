package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"

	"questpro/internal/api"
	"questpro/internal/obs"
)

// metricDef is one metric of BENCHMARK.json. For a per-layer metric,
// moves names the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves              string  // per-layer only
	note               string  // reported only
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "dialogue_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "dialogue_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "turn_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "turn_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "turn_ms_p99", unit: "ms", better: "lower", bound: 0.25},
	{name: "infer_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "create_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "dialogues_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "questions_per_dialogue", unit: "count", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// reported are end-to-end metrics a plain run prints but BENCHMARK.json
// does not gate.
var reported = []metricDef{
	{name: "recovery_s", unit: "s", note: "questprod restart to /readyz; restart-recovery only, which BENCHMARK.json does not list"},
}

const (
	onBothDialogues = "turn_ms_p50 on analyst-sessions and durable-sessions"
	onDurableFlow   = "turn_ms_p50, create_ms_p50 and dialogues_per_s on durable-sessions; nothing elsewhere"
	onStore         = "turn_ms_p50 and dialogues_per_s on durable-sessions, recovery_s and server_rss_mb on restart-recovery; zero on analyst-sessions"
	onCore          = "infer_ms_p50 on analyst-sessions and recovery_s on restart-recovery"
	onFeedback      = "turn_ms_p50 and turn_ms_p95 on analyst-sessions"
	onEval          = "turn_ms_p95 and dialogue_ms_p95 on analyst-sessions; barely durable-sessions"
	onClient        = "failed_share and dialogue_ms_p95 on durable-sessions and restart-recovery"
	onSplit         = "the layer's share of client request time; shows which layer a workload stresses"
	onTail          = "no end-to-end metric: q8b's tail sets, kept out of every workload, timed in-process under a guard of 10M matcher steps (analyst-sessions only)"
)

// perLayer are the metrics of the traced run, one layer at a time.
var perLayer = []metricDef{
	{name: "client.attempts", unit: "count", better: "lower", moves: onClient},
	{name: "client.retries", unit: "count", better: "lower", moves: onClient},
	{name: "gateway.proxy_ms_mean", unit: "ms", better: "lower", moves: onDurableFlow},
	{name: "gateway.overhead_ms_mean", unit: "ms", better: "lower", moves: onDurableFlow},
	{name: "gateway.shed", unit: "count", better: "lower", moves: onDurableFlow},
	{name: "gateway.held_ms", unit: "ms", better: "lower", moves: onDurableFlow},
	{name: "service.http_ms_mean.create", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.http_ms_mean.examples", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.http_ms_mean.infer", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.http_ms_mean.feedback", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.http_ms_mean.feedback_answer", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.wire_ms_mean", unit: "ms", better: "lower", moves: onBothDialogues + "; create_ms_p50"},
	{name: "service.session_self_ms.examples", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.session_self_ms.infer", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.session_self_ms.feedback_start", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.session_self_ms.feedback_answer", unit: "ms", better: "lower", moves: onBothDialogues},
	{name: "service.load_shed", unit: "count", better: "lower", moves: onBothDialogues},
	{name: "ntriples.parse_ms", unit: "ms", better: "lower", moves: "create_ms_p50 on durable-sessions"},
	{name: "ntriples.ontology_kb", unit: "KiB", better: "lower", moves: "create_ms_p50 on durable-sessions"},
	{name: "store.snapshot_save_ms_mean", unit: "ms", better: "lower", moves: onStore},
	{name: "store.snapshot_writes_per_op", unit: "count", better: "lower", moves: onStore},
	{name: "store.write_kb_per_op", unit: "KiB", better: "lower", moves: onStore},
	{name: "store.snapshot_kb_mean", unit: "KiB", better: "lower", moves: onStore},
	{name: "store.restores", unit: "count", better: "higher", moves: onStore},
	{name: "store.quarantined", unit: "count", better: "lower", moves: onStore},
	{name: "core.infer_topk_ms_mean", unit: "ms", better: "lower", moves: onCore},
	{name: "core.merge_pair_self_ms_mean", unit: "ms", better: "lower", moves: onCore},
	{name: "core.algorithm1_calls_per_infer", unit: "count", better: "lower", moves: onCore},
	{name: "core.cache_hit_rate", unit: "ratio", better: "higher", moves: onCore},
	{name: "core.gain_evals_per_infer", unit: "count", better: "lower", moves: onCore},
	{name: "core.complete_ms_mean", unit: "ms", better: "lower", moves: onCore},
	{name: "core.completions_accepted_ratio", unit: "ratio", better: "higher", moves: onCore},
	{name: "feedback.turns_per_dialogue", unit: "count", better: "lower", moves: onFeedback},
	{name: "feedback.questions_per_dialogue", unit: "count", better: "lower", moves: "nothing timed: the user effort of Figure 8, over the pool's controls"},
	{name: "feedback.undistinguished_share", unit: "ratio", better: "lower", moves: onFeedback},
	{name: "feedback.turn_compute_ms_mean", unit: "ms", better: "lower", moves: onFeedback},
	{name: "feedback.tail_ms_mean", unit: "ms", better: "lower", moves: onTail},
	{name: "feedback.tail_steps_mean", unit: "count", better: "lower", moves: onTail},
	{name: "eval.results_calls_per_turn", unit: "count", better: "lower", moves: onEval},
	{name: "eval.results_self_ms_mean", unit: "ms", better: "lower", moves: onEval},
	{name: "eval.results_share_of_turn", unit: "ratio", better: "lower", moves: onEval},
	{name: "eval.provenance_ms_mean", unit: "ms", better: "lower", moves: onEval},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "nothing: traced dialogue_ms_p50 over the untraced one"},
	{name: "split.wire", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.gateway", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.ntriples", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.service", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.store", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.core", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.feedback", unit: "ratio", better: "lower", moves: onSplit},
	{name: "split.eval", unit: "ratio", better: "lower", moves: onSplit},
}

// spanStat aggregates the spans of one kind.
type spanStat struct {
	n       int
	totalNs int64
	selfNs  int64
}

func (s *spanStat) meanMs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.n) / 1e6
}

func (s *spanStat) selfMeanMs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.n) / 1e6
}

// spanStats is per-kind span arithmetic over a forest of finished roots.
type spanStats map[string]*spanStat

func (st spanStats) add(kind string, totalNs, selfNs int64) {
	s := st[kind]
	if s == nil {
		s = &spanStat{}
		st[kind] = s
	}
	s.n++
	s.totalNs += totalNs
	s.selfNs += selfNs
}

// forestStats computes every span's self time: its duration minus the
// part of its interval its children cover, overlapping children counted
// once and children clipped to the parent. A child is a structural child,
// or a root of the forest whose ParentSpanID names the span (a backend
// root under the gateway's proxy span). A root nobody links to, such as a
// feedback dialogue that outlives the request that started it, is never
// subtracted from anything.
func forestStats(roots []*obs.Node) spanStats {
	linked := map[string][]*obs.Node{}
	for _, r := range roots {
		if r.ParentSpanID != "" {
			linked[r.ParentSpanID] = append(linked[r.ParentSpanID], r)
		}
	}
	st := spanStats{}
	for _, r := range roots {
		r.Walk(func(n *obs.Node) {
			kids := n.Children
			if n.SpanID != "" {
				kids = append(append([]*obs.Node(nil), kids...), linked[n.SpanID]...)
			}
			st.add(n.Kind, n.DurationNs, selfNs(n, kids))
		})
	}
	return st
}

// selfNs is n's duration minus the union of its children's intervals,
// clipped to n's own interval.
func selfNs(n *obs.Node, kids []*obs.Node) int64 {
	start, end := n.StartUnixNs, n.StartUnixNs+n.DurationNs
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUnixNs, start), min(k.StartUnixNs+k.DurationNs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return n.DurationNs - covered
}

// within returns the stats of the subtrees rooted at roots of the given
// kinds only.
func within(roots []*obs.Node, kinds ...string) spanStats {
	var sel []*obs.Node
	for _, r := range roots {
		for _, k := range kinds {
			if r.Kind == k {
				sel = append(sel, r)
			}
		}
	}
	return forestStats(sel)
}

// sumSelf adds the self time of every kind with one of the prefixes.
func (st spanStats) sumSelf(prefixes ...string) int64 {
	var t int64
	for k, s := range st {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				t += s.selfNs
				break
			}
		}
	}
	return t
}

// readJournal loads questprod's -trace-log. A SIGKILLed writer can leave a
// torn last line; it is skipped.
func readJournal(path string) ([]*obs.Node, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*obs.Node
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var n obs.Node
		if json.Unmarshal(sc.Bytes(), &n) == nil {
			out = append(out, &n)
		}
	}
	return out, sc.Err()
}

// fromWire converts a served trace into the obs shape.
func fromWire(t *api.TraceNode) *obs.Node {
	n := &obs.Node{
		Kind: t.Kind, SpanID: t.SpanID, ParentSpanID: t.ParentSpanID,
		StartUnixNs: t.StartUnixNs, DurationNs: t.DurationNs,
		Outcome: t.Outcome, Counters: t.Counters, Labels: t.Labels,
	}
	for _, c := range t.Children {
		n.Children = append(n.Children, fromWire(c))
	}
	return n
}

// promSum adds up every sample of family name whose series is exactly
// series and whose labels include want, across scrapes.
func promSum(scrapes []map[string]*obs.MetricFamily, name, series string, want map[string]string) float64 {
	var t float64
	for _, sc := range scrapes {
		mf := sc[name]
		if mf == nil {
			continue
		}
	next:
		for _, s := range mf.Samples {
			if s.Name != series {
				continue
			}
			for k, v := range want {
				if s.Labels[k] != v {
					continue next
				}
			}
			t += s.Value
		}
	}
	return t
}

func counter(scrapes []map[string]*obs.MetricFamily, name string) float64 {
	return promSum(scrapes, name, name, nil)
}

// histMeanMs is a latency histogram's mean in ms, restricted to labels.
func histMeanMs(scrapes []map[string]*obs.MetricFamily, name string, labels map[string]string) float64 {
	return ratio(promSum(scrapes, name, name+"_sum", labels)*1e3, promSum(scrapes, name, name+"_count", labels))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is everything a traced run collected.
type layerInputs struct {
	in        *Inputs
	m         *measurement // traced phase
	untraced  *measurement
	st        *stack
	gate      []map[string]*obs.MetricFamily
	journal   []*obs.Node
	controls  controlSet
	probes    []Probe
	parse     map[string]float64 // ontology → ntriples.Parse ms
	tailMs    []float64          // per tail set, from timeTail
	tailSteps []float64
}

// dialogueKinds are the request kinds of a dialogue's life, named like
// questprod's endpoint label.
var dialogueKinds = []string{"create", "examples", "infer", "feedback", "feedback_answer", "delete"}

// proxiedEndpoints are questprod's endpoints the gateway forwards to:
// everything but its own probes and scrapes.
var proxiedEndpoints = []string{"create", "delete", "stats", "trace", "completions", "examples", "infer", "feedback", "feedback_pending", "feedback_answer"}

func handlerSumMs(qp []map[string]*obs.MetricFamily, endpoint string) float64 {
	const h = "questprod_http_request_duration_seconds"
	return promSum(qp, h, h+"_sum", map[string]string{"endpoint": endpoint}) * 1e3
}

// sessionOps are the root span kinds of the session operations a client
// request runs.
var sessionOps = []string{"session.examples", "session.infer", "session.feedback.start", "session.feedback.answer", "session.feedback.pending"}

func layerValues(li layerInputs) map[string]float64 {
	v := map[string]float64{}
	rec := li.m.rec
	qp := li.st.qpMetrics
	all := forestStats(li.journal)
	ops := within(li.journal, sessionOps...)
	dlg := within(li.journal, "feedback.dialogue")

	v["client.attempts"] = float64(li.m.rt.attempts.Load())
	v["client.retries"] = float64(li.m.rt.attempts.Load() - int64(len(rec.spans)))

	// Gateway: proxy time minus the backend handler time of the same
	// requests, from the two binaries' histograms; held time from the
	// proxy spans of the assembled cross-tier traces.
	var held []float64
	for _, f := range li.m.forests {
		for _, t := range f {
			if t.Kind == "gateway.proxy" {
				held = append(held, float64(t.Counters["held_ms"]))
			}
		}
	}
	proxyCount := promSum(li.gate, "qpgate_proxy_duration_seconds", "qpgate_proxy_duration_seconds_count", nil)
	proxyMs := promSum(li.gate, "qpgate_proxy_duration_seconds", "qpgate_proxy_duration_seconds_sum", nil) * 1e3
	v["gateway.proxy_ms_mean"] = ratio(proxyMs, proxyCount)
	if proxyCount > 0 {
		var backendMs float64
		for _, k := range proxiedEndpoints {
			backendMs += handlerSumMs(qp, k)
		}
		v["gateway.overhead_ms_mean"] = ratio(proxyMs-backendMs, proxyCount)
	}
	v["gateway.shed"] = counter(li.gate, "qpgate_shed_total")
	v["gateway.held_ms"] = mean(held)

	// Service.
	var handlerMs, clientMs, reqs float64
	for _, k := range dialogueKinds {
		handlerMs += handlerSumMs(qp, k)
		for _, l := range rec.latencies(k) {
			clientMs += l
			reqs++
		}
	}
	for _, k := range []string{"create", "examples", "infer", "feedback", "feedback_answer"} {
		v["service.http_ms_mean."+k] = histMeanMs(qp, "questprod_http_request_duration_seconds", map[string]string{"endpoint": k})
	}
	gatewayMs := v["gateway.overhead_ms_mean"] * reqs
	v["service.wire_ms_mean"] = ratio(clientMs-handlerMs-gatewayMs, reqs)
	v["service.session_self_ms.examples"] = all["session.examples"].selfMeanMs()
	v["service.session_self_ms.infer"] = all["session.infer"].selfMeanMs()
	v["service.session_self_ms.feedback_start"] = all["session.feedback.start"].selfMeanMs()
	v["service.session_self_ms.feedback_answer"] = all["session.feedback.answer"].selfMeanMs()
	v["service.load_shed"] = counter(qp, "questprod_load_shed_total")

	// N-Triples: the create body each pool session uploads.
	var parseMs, kb []float64
	for _, s := range li.in.Sessions {
		parseMs = append(parseMs, li.parse[s.Ontology])
		kb = append(kb, float64(len(li.in.Ontologies[s.Ontology]))/1024)
	}
	v["ntriples.parse_ms"] = mean(parseMs)
	v["ntriples.ontology_kb"] = mean(kb)

	// Store.
	muts := float64(rec.mutations)
	v["store.snapshot_save_ms_mean"] = all["snapshot.save"].meanMs()
	v["store.snapshot_writes_per_op"] = ratio(counter(qp, "questprod_snapshot_writes_total"), muts)
	v["store.write_kb_per_op"] = ratio(li.st.storeBytes/1024, muts)
	v["store.snapshot_kb_mean"] = mean(rec.snapKB)
	v["store.restores"] = counter(qp, "questprod_snapshot_restores_total")
	v["store.quarantined"] = counter(qp, "questprod_snapshot_quarantined_total")

	// Core.
	infers := counter(qp, "questprod_infer_total")
	hits, misses := counter(qp, "questprod_cache_hits_total"), counter(qp, "questprod_cache_misses_total")
	v["core.infer_topk_ms_mean"] = all["infer.topk"].meanMs()
	v["core.merge_pair_self_ms_mean"] = all["merge.pair"].selfMeanMs()
	v["core.algorithm1_calls_per_infer"] = ratio(counter(qp, "questprod_algorithm1_calls_total"), infers)
	v["core.cache_hit_rate"] = ratio(hits, hits+misses)
	v["core.gain_evals_per_infer"] = ratio(counter(qp, "questprod_gain_evals_total"), infers)
	v["core.complete_ms_mean"] = all["complete.examples"].meanMs()
	v["core.completions_accepted_ratio"] = ratio(counter(qp, "questprod_completions_accepted_total"), counter(qp, "questprod_completions_considered_total"))

	// Feedback: turns from the journal, the rest from the in-process replay.
	var turns, und int
	var compute []float64
	for _, p := range li.probes {
		turns += p.Turns
		und += p.Undistinguished
		compute = append(compute, p.ComputeMs...)
	}
	if d := dlg["feedback.dialogue"]; d != nil {
		v["feedback.turns_per_dialogue"] = ratio(float64(dlg["feedback.question"].count()), float64(d.n))
	}
	v["feedback.undistinguished_share"] = ratio(float64(und), float64(turns))
	v["feedback.questions_per_dialogue"] = questionsPerDialogue(li.controls)
	v["feedback.tail_ms_mean"] = mean(li.tailMs)
	v["feedback.tail_steps_mean"] = mean(li.tailSteps)
	v["feedback.turn_compute_ms_mean"] = mean(compute)

	// Eval: the dialogue's evaluations happen while a turn request waits.
	turnMs := 0.0
	for _, l := range rec.latencies("feedback", "feedback_answer") {
		turnMs += l
	}
	dlgEval := dlg["eval.results"]
	v["eval.results_calls_per_turn"] = ratio(float64(dlgEval.count()), float64(rec.turns))
	v["eval.results_self_ms_mean"] = all["eval.results"].selfMeanMs()
	v["eval.results_share_of_turn"] = ratio(float64(dlgEval.self())/1e6, turnMs)
	v["eval.provenance_ms_mean"] = all["eval.provenance"].meanMs()

	v["trace.overhead_share"] = ratio(median(rec.dialoguesPerInput()), median(li.untraced.rec.dialoguesPerInput()))

	// Split of all client request time into layers. Self times partition
	// each span tree; the dialogue goroutine's work is charged to the turn
	// requests that wait for it.
	ns := func(x int64) float64 { return float64(x) / 1e6 }
	creates := float64(len(rec.latencies("create")))
	split := map[string]float64{
		"gateway":  gatewayMs,
		"ntriples": creates * v["ntriples.parse_ms"],
		"store":    ns(ops.sumSelf("snapshot.")),
		"core":     ns(ops.sumSelf("infer.", "merge.", "complete.")),
	}
	evalReq, evalDlg := ns(ops.sumSelf("eval.")), ns(dlg.sumSelf("eval."))
	fbWait := ns(ops["session.feedback.start"].self() + ops["session.feedback.answer"].self() + ops["session.feedback.pending"].self())
	split["eval"] = evalReq + evalDlg
	split["feedback"] = math.Max(0, fbWait-evalDlg)
	split["service"] = math.Max(0, handlerMs-split["ntriples"]-split["store"]-split["core"]-evalReq-fbWait)
	split["wire"] = math.Max(0, clientMs-handlerMs-gatewayMs)
	for k, x := range split {
		v["split."+k] = ratio(x, clientMs)
	}
	return v
}

func (s *spanStat) count() int {
	if s == nil {
		return 0
	}
	return s.n
}

func (s *spanStat) self() int64 {
	if s == nil {
		return 0
	}
	return s.selfNs
}
