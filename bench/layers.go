package main

// layers.go turns a traced run into the per-layer metrics. There are
// three sources, all outside the server: what the two connections saw,
// before/after scrapes of GET /metrics at the phase boundaries, and the
// in-process layer probes of probes.go. Names are <module>.<metric>.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// backlogSampler reads two gauges off /metrics once a second on its own
// connection: records the ingest connector has not yet delivered, and
// due-but-unexecuted evaluation instants.
type backlogSampler struct {
	c    *conn
	quit chan struct{}
	wg   sync.WaitGroup

	at      []float64 // s since start
	backlog []float64 // lag + eval backlog
	lagMax  float64
	evalMax float64
}

func startBacklogSampler(base string) *backlogSampler {
	s := &backlogSampler{c: newConn(base), quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		start := time.Now()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			status, body, err := s.c.do(http.MethodGet, "/metrics", nil)
			if err != nil || !ok2xx(status) {
				continue // no gauge, no sample: backlog_growing then reads 0 samples
			}
			lag := gaugeSum(body, "seraph_ingest_lag_records")
			ev := gaugeSum(body, "seraph_eval_backlog_instants")
			s.at = append(s.at, time.Since(start).Seconds())
			s.backlog = append(s.backlog, lag+ev)
			s.lagMax = math.Max(s.lagMax, lag)
			s.evalMax = math.Max(s.evalMax, ev)
		}
	}()
	return s
}

func (s *backlogSampler) stop() {
	close(s.quit)
	s.wg.Wait()
	s.c.hc.CloseIdleConnections()
}

// gaugeSum adds every sample line of one family without parsing the
// rest of a multi-megabyte exposition.
func gaugeSum(body []byte, name string) float64 {
	var total float64
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if !bytes.HasPrefix(line, []byte(name)) || len(line) == len(name) {
			continue
		}
		if c := line[len(name)]; c != ' ' && c != '{' {
			continue // a longer family name sharing the prefix
		}
		if sp := bytes.LastIndexByte(line, ' '); sp >= 0 {
			if v, err := strconv.ParseFloat(string(line[sp+1:]), 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// growing reports whether the backlog rose over the last two-thirds of
// the samples by more than `floor` records, the sign of a rate the
// server cannot sustain.
func growing(at, backlog []float64, floor float64) bool {
	from := len(at) / 3
	at, backlog = at[from:], backlog[from:]
	if len(at) < 3 {
		return false
	}
	rise := slope(at, backlog) * (at[len(at)-1] - at[0])
	return rise > floor
}

// fetchGroups reads GET /groups: group id -> member queries. A server
// without the endpoint has no groups.
func fetchGroups(c *conn) map[string][]string {
	status, body, err := c.do(http.MethodGet, "/groups", nil)
	if err != nil || !ok2xx(status) {
		return nil
	}
	var gs []struct {
		ID      string   `json:"id"`
		Members []string `json:"members"`
	}
	if json.Unmarshal(body, &gs) != nil {
		return nil
	}
	out := map[string][]string{}
	for _, g := range gs {
		out[g.ID] = g.Members
	}
	return out
}

// evalSeconds is the evaluation time between two scrapes. Under shared
// evaluation every member's seraph_query_eval_seconds is clocked from
// the start of its group's evaluation, so members overlap; the group's
// time is its slowest member's, and adding members would count the
// shared part once per member.
func evalSeconds(before, after scrape, groups map[string][]string) opt {
	const fam = "seraph_query_eval_seconds_sum"
	a := after.byLabel(fam, "query")
	if len(a) == 0 {
		return opt{}
	}
	b := before.byLabel(fam, "query")
	grouped := map[string]bool{}
	var total float64
	for _, members := range groups {
		var slowest float64
		for _, m := range members {
			grouped[m] = true
			slowest = math.Max(slowest, a[m]-b[m])
		}
		total += slowest
	}
	for q, v := range a {
		if !grouped[q] && !strings.HasPrefix(q, "mqo:") {
			total += v - b[q]
		}
	}
	return some(total)
}

type layerInputs struct {
	r                                *runner
	paced, closedPlain, closedTraced phaseStats
	pacedSampler, closedSampler      *backlogSampler
	late                             []float64
	latencies                        []float64 // sorted, ms
	registerMS                       []float64
	rssEnd                           float64
	walBytes                         int64
}

func (l *layerInputs) phases() []phaseStats {
	return []phaseStats{l.paced, l.closedPlain, l.closedTraced}
}

// d is a counter's increase over the three timed phases. The server is
// restarted between the paced and the closed phase, so the phases are
// differenced one by one.
func (l *layerInputs) d(name string) opt {
	var total float64
	for _, ps := range l.phases() {
		x := delta(ps.before, ps.aft, name)
		if !x.ok {
			return opt{}
		}
		total += x.v
	}
	return some(total)
}

// end is a gauge's value at the end of the run.
func (l *layerInputs) end(name string) opt {
	v, ok := l.closedTraced.aft.sum(name)
	return opt{v, ok}
}

func (l *layerInputs) metrics() (map[string]metric, []span, error) {
	r, w := l.r, l.r.w
	probes, err := runProbes(w, r.qs, r.in, r.p.pacedStart, filepath.Join(r.cfg.root, ".bench_build"))
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{}
	events := float64(l.paced.events + l.closedPlain.events + l.closedTraced.events)
	perEvent := func(o opt) opt { return ratio(o, some(events)) }
	msMean := func(family string) opt { // histogram mean in ms
		sum := l.d(family + "_sum")
		return ratio(opt{sum.v * 1000, sum.ok}, l.d(family+"_count"))
	}
	hitRatio := func(hits, misses string) opt {
		h, ms := l.d(hits), l.d(misses)
		return ratio(h, opt{h.v + ms.v, h.ok && ms.ok})
	}
	// A layer that an in-memory server does not have did no work: a
	// measured zero, whatever /metrics exports.
	durable := func(o opt) opt {
		if !w.durable {
			return some(0)
		}
		return o
	}

	// loadgen
	m["loadgen.late_ms_p99"] = num(quantile(l.late, 0.99), "ms")
	m["loadgen.poll_interval_ms"] = num(median(r.pl.intervals), "ms")
	polls := r.pl.polls // the poller was halted with the server
	grow := 0.0
	if ps := l.pacedSampler; ps != nil && growing(ps.at, ps.backlog, float64(2*w.perPost)) {
		grow = 1
	}
	m["loadgen.backlog_growing"] = num(grow, "0/1")
	// The tail of the paced latencies is reported here, unbounded: on a
	// two-core box a handful of stalls in a 14 s phase sets it, and it
	// swung 2-4x between identical runs.
	m["loadgen.result_latency_ms_p90"] = num(quantile(l.latencies, 0.90), "ms")
	tail, _ := tailPercentile(l.latencies)
	m["loadgen.result_latency_ms_tail"] = num(tail, "ms")

	// server
	var postMS, postBytes []float64
	for _, ps := range l.phases() {
		for _, rec := range ps.posts {
			postMS = append(postMS, float64(rec.done.Sub(rec.sent))/1e6)
			postBytes = append(postBytes, float64(rec.bytes))
		}
	}
	postSorted := sortedCopy(postMS)
	m["server.post_ms_p50"] = num(quantile(postSorted, 0.5), "ms")
	m["server.post_ms_p99"] = num(quantile(postSorted, 0.99), "ms")
	m["server.post_bytes_per_event"] = num(mean(postBytes)/float64(w.perPost), "B")
	pollMS := make([]float64, len(polls))
	for i, p := range polls {
		pollMS[i] = float64(p.end.Sub(p.start)) / 1e6
	}
	m["server.poll_ms_p50"] = num(median(pollMS), "ms")
	var resultBytes int64
	var gaps int64
	for _, pr := range r.pl.probes {
		resultBytes += pr.bytes
		gaps += pr.gaps
	}
	m["server.result_bytes_per_instant"] = num(float64(resultBytes)/float64(r.p.total), "B")
	m["server.register_ms_p50"] = num(median(l.registerMS), "ms")
	non2xx := r.pl.non2xx
	for _, rec := range r.posts {
		if !ok2xx(rec.status) {
			non2xx++
		}
	}
	m["server.http_non2xx"] = num(float64(non2xx), "count")
	// What the consumer lost: sequence numbers the poller never saw. The
	// server's own seraph_result_ring_dropped_total counts every eviction
	// of a full ring, fetched or not, so it says nothing about loss.
	m["server.ring_dropped"] = num(float64(gaps), "count")

	// What of a POST the layer probes do not explain: HTTP handling, and
	// on an in-memory server the evaluation that runs inside the request
	// (possibly on several workers, so its wall time cannot be told
	// apart from outside; engine.eval_ms_mean has its busy time).
	var ackMS float64 // mean POST time per event, closed loop, tracing off
	for _, rec := range l.closedPlain.posts {
		ackMS += float64(rec.done.Sub(rec.sent)) / 1e6
	}
	ackMS /= float64(l.closedPlain.events)
	m["server.self_ms_per_event"] = num(ackMS-(probes.decodeUSp50+probes.mergeUSp50+probes.produceUSp50)/1000, "ms")

	// parser, ingest, graphstore
	m["parser.parse_us_p50"] = num(probes.parseUSp50, "us")
	m["ingest.decode_us_p50"] = num(probes.decodeUSp50, "us")
	m["ingest.decode_us_per_kb"] = num(probes.decodeUSperKB, "us/KB")
	m["ingest.decode_allocs_per_event"] = num(probes.decodeAllocs, "count")
	m["ingest.delivered"] = fromOpt(durable(l.d("seraph_ingest_delivered_total")), "count")
	m["ingest.retries"] = fromOpt(durable(l.d("seraph_ingest_retries_total")), "count")
	m["ingest.deadletter"] = fromOpt(durable(l.d("seraph_deadletter_total")), "count")
	m["ingest.duplicates"] = fromOpt(durable(l.d("seraph_ingest_duplicates_total")), "count")
	lagMax, backlogMax := 0.0, 0.0
	for _, s := range []*backlogSampler{l.pacedSampler, l.closedSampler} {
		if s != nil {
			lagMax, backlogMax = math.Max(lagMax, s.lagMax), math.Max(backlogMax, s.evalMax)
		}
	}
	m["ingest.lag_max"] = num(lagMax, "count")
	m["graphstore.merge_us_p50"] = num(probes.mergeUSp50, "us")
	m["graphstore.merge_us_per_kb"] = num(probes.mergeUSperKB, "us/KB")
	m["symtab.size"] = fromOpt(l.end("seraph_symtab_size"), "count")

	// wal, queue
	appends, fsyncs := durable(l.d("seraph_wal_appends_total")), durable(l.d("seraph_wal_fsync_seconds_count"))
	m["wal.append_us_p50"] = num(probes.appendUSp50, "us")
	m["wal.append_us_p99"] = num(probes.appendUSp99, "us")
	m["wal.appends"] = fromOpt(appends, "count")
	m["wal.bytes_per_event"] = fromOpt(perEvent(durable(l.d("seraph_wal_bytes_total"))), "B")
	m["wal.fsyncs"] = fromOpt(fsyncs, "count")
	m["wal.fsync_ms_mean"] = fromOpt(durable(msMean("seraph_wal_fsync_seconds")), "ms")
	m["wal.appends_per_fsync"] = fromOpt(ratio(appends, fsyncs), "ratio")
	m["wal.dir_bytes_end"] = num(float64(l.walBytes), "B")
	m["queue.produce_us_p50"] = num(probes.produceUSp50, "us")
	m["queue.self_us_p50"] = num(probes.produceUSp50-probes.appendUSp50, "us")
	m["queue.backpressure"] = fromOpt(l.d("seraph_backpressure_total"), "count")

	// window, eval
	m["window.snapshot_build_s_total"] = fromOpt(l.d("seraph_query_snapshot_build_seconds_sum"), "s")
	m["window.snapshot_build_ms_mean"] = fromOpt(msMean("seraph_query_snapshot_build_seconds"), "ms")
	elems := l.closedTraced.aft.byLabel("seraph_query_window_elements", "query")
	var elemSum float64
	for _, v := range elems {
		elemSum += v
	}
	m["window.elements_mean"] = fromOpt(ratio(opt{elemSum, len(elems) > 0}, some(float64(len(elems)))), "count")
	m["window.incremental_applied"] = fromOpt(l.d("seraph_incremental_applied_total"), "count")
	m["window.cache_hit_ratio"] = fromOpt(hitRatio("seraph_snapshot_cache_hits_total", "seraph_snapshot_cache_misses_total"), "ratio")
	m["eval.cypher_s_total"] = fromOpt(l.d("seraph_query_cypher_eval_seconds_sum"), "s")
	m["eval.cypher_ms_mean"] = fromOpt(msMean("seraph_query_cypher_eval_seconds"), "ms")
	// One candidate is recorded as 1 µs, so seconds x 1e6 is candidates.
	cand := l.d("seraph_match_candidates_sum")
	m["eval.match_candidates_mean"] = fromOpt(ratio(opt{cand.v * 1e6, cand.ok}, l.d("seraph_match_candidates_count")), "count")
	m["eval.index_hit_ratio"] = fromOpt(hitRatio("seraph_match_index_hits_total", "seraph_match_index_misses_total"), "ratio")
	m["eval.pushdowns"] = fromOpt(l.d("seraph_match_pushdowns_total"), "count")

	// engine
	var evalTotal opt
	evalTotal.ok = true
	for _, ps := range l.phases() {
		e := evalSeconds(ps.before, ps.aft, r.groups)
		evalTotal.v += e.v
		evalTotal.ok = evalTotal.ok && e.ok
	}
	applied, bypass := l.d("seraph_delta_applied_total"), l.d("seraph_delta_bypass_total")
	m["engine.instants"] = fromOpt(l.d("seraph_scheduler_instants_total"), "count")
	m["engine.evaluations"] = fromOpt(l.d("seraph_query_evaluations_total"), "count")
	m["engine.eval_s_total"] = fromOpt(evalTotal, "s")
	m["engine.eval_ms_mean"] = fromOpt(perEvent(opt{evalTotal.v * 1000, evalTotal.ok}), "ms")
	m["engine.dispatch_ms_mean"] = fromOpt(msMean("seraph_scheduler_dispatch_seconds"), "ms")
	m["engine.delta_applied"] = fromOpt(applied, "count")
	m["engine.delta_bypass"] = fromOpt(bypass, "count")
	m["engine.delta_fallback"] = fromOpt(l.d("seraph_delta_fallback_total"), "count")
	m["engine.delta_applied_ratio"] = fromOpt(ratio(applied, opt{applied.v + bypass.v, applied.ok && bypass.ok}), "ratio")
	m["engine.mqo_groups"] = fromOpt(l.end("seraph_mqo_groups"), "count")
	m["engine.mqo_evals_saved"] = fromOpt(l.d("seraph_mqo_evals_saved"), "count")
	m["engine.mqo_rows_fanned_out"] = fromOpt(l.d("seraph_mqo_shared_rows_fanned_out"), "count")
	m["engine.rows_emitted"] = fromOpt(l.d("seraph_query_rows_emitted_total"), "count")
	m["engine.backlog_max"] = num(backlogMax, "count")
	m["engine.shed"] = fromOpt(l.d("seraph_shed_total"), "count")
	// The checkpoint gauges are registered by the first save, so on a
	// short run their absence means no checkpoint yet, not a lost series.
	lazy := func(o opt) opt { return some(o.v) }
	m["engine.checkpoints"] = fromOpt(durable(lazy(l.d("seraph_checkpoint_seq"))), "count")
	m["engine.checkpoint_bytes"] = fromOpt(durable(lazy(l.end("seraph_checkpoint_bytes"))), "B")
	// The closed phase runs on the server the last kill -9 restarted, so
	// its first scrape holds that recovery's engine-side time.
	rec, ok := l.closedPlain.before.sum("seraph_recovery_seconds_sum")
	m["engine.recovery_self_s"] = fromOpt(durable(opt{rec, ok}), "s")

	// proc
	var user, sys float64
	for _, ps := range l.phases() {
		user, sys = user+ps.cpuUser, sys+ps.cpuSys
	}
	m["proc.cpu_user_s"] = num(user, "s")
	m["proc.cpu_sys_s"] = num(sys, "s")
	m["proc.rss_end_mb"] = num(l.rssEnd, "MB")

	// trace: attributed layer time over closed-loop wall. In-memory
	// ingest is serial (decode, merge, evaluate inside the POST); durable
	// ingest is pipelined (acknowledge || drain), so the slower side is
	// what the wall waits for. Evaluation time is busy time summed over
	// queries that may run on both cores, so the share can pass 1.
	evalPlain := evalSeconds(l.closedPlain.before, l.closedPlain.aft, r.groups)
	n := float64(l.closedPlain.events)
	ack := n * (probes.decodeUSp50 + probes.mergeUSp50) / 1e6
	attributed := ack + evalPlain.v
	if w.durable {
		ack += n * probes.produceUSp50 / 1e6
		drain := n*probes.decodeUSp50/1e6 + evalPlain.v
		attributed = math.Max(ack, drain)
	}
	m["trace.accounted_share"] = fromOpt(opt{attributed / l.closedPlain.wall, evalPlain.ok}, "ratio")
	plainEPS := float64(l.closedPlain.events) / l.closedPlain.wall
	tracedEPS := float64(l.closedTraced.events) / l.closedTraced.wall
	m["trace.overhead_share"] = num(1-tracedEPS/plainEPS, "ratio")

	return m, l.buildSpans(probes, polls), nil
}
