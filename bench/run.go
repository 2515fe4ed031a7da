package main

// run.go drives one workload through its phases against a child server:
//
//	set-up xN -> paced (open loop) -> kill -9 / restart xN -> closed loop -> SIGTERM -> oracle
//
// and turns what the two connections saw into the end-to-end metrics.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type runConfig struct {
	w       *workloadSpec
	seed    int64
	seconds float64
	trace   bool

	root    string          // checkout root
	bin     string          // built seraph-server
	defined map[string]bool // flags the binary defines
	outDir  string          // server stderr, traces, result files
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	events      int
	wall        float64 // s: first POST sent (due, when paced) -> last instant visible
	cpuUser     float64
	cpuSys      float64
	before, aft scrape // traced runs only
	posts       []postRec
}

// runner holds one run's state.
type runner struct {
	cfg   runConfig
	w     *workloadSpec
	p     plan
	in    *inputs
	qs    []querySpec
	names []string // probe query names
	probe []int    // probe query indices

	segs []segment
	keep map[int]bool

	args         []string
	flagsSkipped []string
	dataDir      string
	stderrPath   string

	ch     *child
	poster *conn
	pl     *poller

	posts      []postRec      // every POST /events of the measured server
	registered [][2]time.Time // start and end of every POST /queries of its set-up
	groups     map[string][]string

	t0 time.Time // run start: zero of every span
}

func newRunner(cfg runConfig) (*runner, error) {
	w := cfg.w
	r := &runner{cfg: cfg, w: w, p: makePlan(w, cfg.seconds), qs: w.queries(), t0: time.Now()}
	in, err := encodeAll(w.gen(cfg.seed, r.p.total))
	if err != nil {
		return nil, err
	}
	r.in = in
	r.probe = pickProbes(r.qs, cfg.seed)
	for _, qi := range r.probe {
		r.names = append(r.names, r.qs[qi].name)
	}
	r.planOracle()

	groups := append([][]string(nil), commonFlags...)
	if w.durable {
		dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "data-")
		if err != nil {
			return nil, err
		}
		r.dataDir = dir
		groups = append(groups, []string{"-data-dir", dir}, []string{"-fsync", w.fsync})
	}
	r.args, r.flagsSkipped = filterFlags(cfg.defined, groups)
	r.stderrPath = filepath.Join(cfg.outDir, "server-"+w.name+".log")
	_ = os.Remove(r.stderrPath) // one run per log; a missing file is the normal case
	return r, nil
}

// planOracle picks the sampled (query, instant) pairs: seeded segments
// anywhere in the measured stream for the polled queries, and the
// stream's last segment for every query. Their rows are the only ones
// the poller keeps.
func (r *runner) planOracle() {
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x0a11ce))
	all := make([]int, len(r.qs))
	for i := range all {
		all[i] = i
	}
	n := oracleSegmentLen
	if span := r.p.total - r.p.pacedStart; n > span {
		n = span
	}
	last := r.p.total - n
	for i := 0; i < oracleSegments && last > r.p.pacedStart; i++ {
		r.segs = append(r.segs, segment{first: r.p.pacedStart + rng.Intn(last-r.p.pacedStart), n: n, queries: r.probe})
	}
	r.segs = append(r.segs, segment{first: last, n: n, queries: all})
	r.keep = map[int]bool{}
	for _, s := range r.segs {
		for i := s.first; i < s.first+s.n; i++ {
			r.keep[i] = true
		}
	}
	if r.w.durable {
		// The instants a recovering server replays: their re-emitted
		// rows are compared with the originals.
		for i := r.p.suffixStart; i < r.p.closedStart; i++ {
			r.keep[i] = true
		}
	}
}

func (r *runner) cleanup() {
	if r.pl != nil && r.pl.stop != nil {
		select {
		case <-r.pl.done:
		default:
			r.pl.halt()
		}
	}
	if r.ch != nil {
		r.ch.kill()
		r.ch = nil
	}
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) // best effort: the directory is under .bench_build either way
	}
}

// boot starts a server. When register is set (every in-memory start,
// and a durable start on an empty directory) it also registers every
// query from instant `from`. It returns the exec instant and when each
// registration started and ended.
func (r *runner) boot(register bool, from int) (t0 time.Time, regs [][2]time.Time, err error) {
	ch, t0, err := startChild(r.cfg.bin, r.args, r.stderrPath)
	if err != nil {
		return time.Time{}, nil, err
	}
	r.ch = ch
	if r.poster == nil {
		r.poster = newConn(ch.base)
	} else {
		r.poster.retarget(ch.base)
	}
	if register {
		start := r.in.elems[from].Time
		for _, q := range r.qs {
			s := time.Now()
			status, body, err := r.poster.do(http.MethodPost, "/queries", []byte(q.text(start)))
			if err != nil {
				return time.Time{}, nil, fmt.Errorf("register %s: %w", q.name, err)
			}
			if !ok2xx(status) {
				return time.Time{}, nil, fmt.Errorf("register %s: %d %s", q.name, status, body)
			}
			regs = append(regs, [2]time.Time{s, time.Now()})
		}
	}
	if r.pl == nil {
		r.pl = newPoller(ch.base, r.names, r.p.total, r.w.slide, r.keep, r.w.durable)
		r.pl.trace = r.cfg.trace
	} else {
		r.pl.c.retarget(ch.base)
	}
	r.pl.run()
	return t0, regs, nil
}

// down stops polling and takes the server down, by SIGKILL or by
// SIGTERM.
func (r *runner) down(graceful bool) error {
	r.pl.halt()
	ch := r.ch
	r.ch = nil
	if graceful {
		return ch.terminate()
	}
	ch.kill()
	return nil
}

// post sends events [first, first+n) as one POST /events. A zero due
// time means now: the closed loop and everything untimed.
func (r *runner) post(first, n int, due time.Time) postRec {
	body := bytes.Join(r.in.lines[first:first+n], nil)
	rec := postRec{first: first, n: n, due: due, bytes: len(body)}
	rec.sent = time.Now()
	if due.IsZero() {
		rec.due = rec.sent
	}
	status, _, err := r.poster.do(http.MethodPost, "/events", body)
	rec.done = time.Now()
	if err == nil {
		rec.status = status
	}
	r.posts = append(r.posts, rec)
	return rec
}

const visibleTimeout = 20 * time.Second

// patience is how long a phase planned to take d may run before it stops
// posting: on a box too slow for the calibrated rates the run then fails
// (the unposted events' results count as missing) within the contract's
// time limit instead of hanging.
func patience(d time.Duration) time.Duration {
	return max(3*d, d+15*time.Second)
}

// setup is one measured set-up: exec -> healthy -> queries registered
// -> warm-up posted -> its last result visible.
func (r *runner) setup() (float64, error) {
	if r.dataDir != "" {
		if err := os.RemoveAll(r.dataDir); err != nil {
			return 0, err
		}
		if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
			return 0, err
		}
	}
	// A fresh poller: earlier set-ups showed the same instants.
	r.pl, r.posts = nil, nil
	t0, regs, err := r.boot(true, 0)
	if err != nil {
		return 0, err
	}
	r.registered = regs
	r.post(0, r.p.warm, time.Time{})
	vis, err := r.pl.waitVisible(r.p.warm-1, visibleTimeout)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return vis.Sub(t0).Seconds(), nil
}

// restart is one measured crash recovery: SIGKILL, exec with the same
// flags, one fresh event, its result visible. A durable server finds
// its queries and window in the data directory; an in-memory one has
// them registered and the last window replayed by the client, which is
// what its operator pays.
func (r *runner) restart(k int) (float64, error) {
	idx := r.p.restartStart + k
	if err := r.down(false); err != nil {
		return 0, err
	}
	from := idx - r.w.widthSlides
	t0, _, err := r.boot(!r.w.durable, from)
	if err != nil {
		return 0, err
	}
	if r.w.durable {
		r.post(idx, 1, time.Time{})
	} else {
		r.post(from, r.w.widthSlides+1, time.Time{})
	}
	vis, err := r.pl.waitVisible(idx, visibleTimeout)
	if err != nil {
		return 0, fmt.Errorf("restart %d: %w", k, err)
	}
	return vis.Sub(t0).Seconds(), nil
}

// timed wraps a phase with the child's CPU clock and, when tracing,
// metric scrapes, so counts and times line up on the same boundaries.
func (r *runner) timed(events int, body func() (wall float64, err error)) (phaseStats, error) {
	ps := phaseStats{events: events}
	mark := len(r.posts)
	var err error
	if r.cfg.trace {
		if ps.before, err = fetchMetrics(r.poster); err != nil {
			return ps, err
		}
	}
	u0, s0, err := r.ch.cpu()
	if err != nil {
		return ps, err
	}
	if ps.wall, err = body(); err != nil {
		return ps, err
	}
	u1, s1, err := r.ch.cpu()
	if err != nil {
		return ps, err
	}
	ps.cpuUser, ps.cpuSys = u1-u0, s1-s0
	if r.cfg.trace {
		if ps.aft, err = fetchMetrics(r.poster); err != nil {
			return ps, err
		}
	}
	ps.posts = r.posts[mark:]
	return ps, nil
}

// paced is the open-loop phase: POST j is due at a fixed time whatever
// the server does, and is sent then or, if the previous POST is still
// outstanding on the one connection, as soon as it returns.
func (r *runner) paced() (float64, error) {
	w, p := r.w, r.p
	interval := time.Duration(float64(w.perPost) / w.pacedEPS * float64(time.Second))
	start := time.Now().Add(5 * time.Millisecond)
	giveUp := start.Add(patience(time.Duration(p.paced/w.perPost) * interval))
	last := -1
	for j := 0; j*w.perPost < p.paced && time.Now().Before(giveUp); j++ {
		due := start.Add(time.Duration(j) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		last = r.post(p.pacedStart+j*w.perPost, w.perPost, due).first + w.perPost - 1
	}
	vis, err := r.pl.waitVisible(last, visibleTimeout)
	if err != nil {
		return 0, fmt.Errorf("paced phase: %w", err)
	}
	return vis.Sub(start).Seconds(), nil
}

// closed is the closed-loop phase over events [first, first+n): the
// next POST goes out when the previous one is acknowledged, and the
// phase ends when the last instant's result is visible, so
// acknowledged-but-unevaluated backlog does not count as done.
func (r *runner) closed(first, n int) (float64, error) {
	start := time.Now()
	giveUp := start.Add(patience(time.Duration(float64(n) / r.w.closedEPS * float64(time.Second))))
	last := first - 1
	for i := first; i < first+n && time.Now().Before(giveUp); i += r.w.perPost {
		last = r.post(i, r.w.perPost, time.Time{}).first + r.w.perPost - 1
	}
	vis, err := r.pl.waitVisible(last, visibleTimeout)
	if err != nil {
		return 0, fmt.Errorf("closed phase: %w", err)
	}
	return vis.Sub(start).Seconds(), nil
}

// result is everything one run measured, before it is cut down to the
// metrics BENCHMARK.json names.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstFail string `json:"first_failure,omitempty"`

	Metrics map[string]metric `json:"metrics"`
	Detail  map[string]any    `json:"detail"`

	spans []span
}

type metric struct {
	Value *float64 `json:"value"` // null: the server no longer exports the series
	Unit  string   `json:"unit"`
}

func num(v float64, unit string) metric { return metric{Value: &v, Unit: unit} }

func fromOpt(o opt, unit string) metric {
	if !o.ok {
		return metric{Unit: unit}
	}
	return num(o.v, unit)
}

func (r *runner) run() (*result, error) {
	defer r.cleanup()
	w, p := r.w, r.p
	res := &result{Workload: w.name, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Metrics: map[string]metric{}, Detail: map[string]any{}}

	// Set-up, several times: the last server stays up and is measured.
	var setups []float64
	for i := 0; i < w.repeats; i++ {
		if i > 0 {
			if err := r.down(false); err != nil {
				return nil, err
			}
		}
		s, err := r.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	registerMS := make([]float64, len(r.registered))
	for i, iv := range r.registered {
		registerMS[i] = float64(iv[1].Sub(iv[0])) / 1e6
	}
	if r.cfg.trace {
		r.groups = fetchGroups(r.poster)
	}

	var pacedSampler, closedSampler *backlogSampler
	if r.cfg.trace {
		pacedSampler = startBacklogSampler(r.ch.base)
	}
	pacedStats, err := r.timed(p.paced, r.paced)
	if pacedSampler != nil {
		pacedSampler.stop()
	}
	if err != nil {
		return nil, err
	}
	peakA, _, err := r.ch.rssMB()
	if err != nil {
		return nil, err
	}

	// Crash recovery. A durable server is first restarted gracefully
	// and fed a fixed number of events, so every kill leaves the same
	// log suffix to replay whatever the checkpoint cadence did before.
	if w.durable {
		if err := r.down(true); err != nil {
			return nil, err
		}
		if _, _, err := r.boot(false, 0); err != nil {
			return nil, err
		}
		for i := p.suffixStart; i < p.restartStart; i += w.perPost {
			r.post(i, w.perPost, time.Time{})
		}
		if _, err := r.pl.waitVisible(p.restartStart-1, visibleTimeout); err != nil {
			return nil, fmt.Errorf("restart preparation: %w", err)
		}
	}
	var restarts []float64
	for k := 0; k < w.repeats; k++ {
		s, err := r.restart(k)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, s)
	}

	// Closed loop. A traced run measures the first half with span
	// recording and sampling off and the second half with them on; the
	// ratio is the tracing overhead.
	var closedStats, tracedHalf phaseStats
	if r.cfg.trace {
		half := p.closed / 2 / w.perPost * w.perPost
		r.pl.setTrace(false)
		closedStats, err = r.timed(half, func() (float64, error) { return r.closed(p.closedStart, half) })
		if err != nil {
			return nil, err
		}
		r.pl.setTrace(true)
		closedSampler = startBacklogSampler(r.ch.base)
		tracedHalf, err = r.timed(p.closed-half, func() (float64, error) { return r.closed(p.closedStart+half, p.closed-half) })
		closedSampler.stop()
		if err != nil {
			return nil, err
		}
	} else {
		closedStats, err = r.timed(p.closed, func() (float64, error) { return r.closed(p.closedStart, p.closed) })
		if err != nil {
			return nil, err
		}
	}
	peakB, rssEnd, err := r.ch.rssMB()
	if err != nil {
		return nil, err
	}

	// Untimed from here: the last segment of every unpolled query, then
	// shutdown, then the oracle.
	others := r.fetchFinalSegment()
	var walBytes int64
	if r.dataDir != "" {
		walBytes = dirBytes(r.dataDir)
	}
	if err := r.down(true); err != nil {
		return nil, err
	}

	verdict, err := checkSegments(w, r.qs, r.in, r.segs, func(q, instant int) ([]byte, bool) {
		for i, qi := range r.probe {
			if qi == q {
				rows, ok := r.pl.probes[i].rows[instant]
				return rows, ok
			}
		}
		rows, ok := others[q][instant]
		return rows, ok
	})
	if err != nil {
		return nil, err
	}

	// --- failures against attempts ---
	acc := r.account(pacedStats, verdict)
	res.Attempted, res.Failed, res.FirstFail = acc.attempted, acc.failed, acc.first
	res.Correct = acc.failed == 0
	for qi := range r.qs {
		if verdict.perQuery[qi] == 0 {
			return nil, fmt.Errorf("oracle sampled no instant of query %s", r.qs[qi].name)
		}
	}

	// --- end-to-end metrics ---
	lat := r.latencies(pacedStats)
	sort.Float64s(lat)
	if len(lat) == 0 {
		return nil, errors.New("paced phase produced no latency sample")
	}
	tail, tailPct := tailPercentile(lat)
	res.Detail["latency_tail_ms"] = tail
	measuredEvents := float64(pacedStats.events + closedStats.events + tracedHalf.events)
	cpu := pacedStats.cpuUser + pacedStats.cpuSys + closedStats.cpuUser + closedStats.cpuSys + tracedHalf.cpuUser + tracedHalf.cpuSys
	e2e := map[string]metric{
		"setup_s":               num(median(setups), "s"),
		"events_per_s":          num(float64(closedStats.events)/closedStats.wall, "events/s"),
		"result_latency_ms_p50": num(quantile(lat, 0.5), "ms"),
		"cpu_ms_per_event":      num(1000*cpu/measuredEvents, "ms"),
		"rss_peak_mb":           num(math.Max(peakA, peakB), "MB"),
		"restart_s":             num(median(restarts), "s"),
	}

	late := r.lateness(pacedStats)
	res.Detail["plan"] = map[string]int{"warm": p.warm, "paced": p.paced, "suffix": p.suffix, "restart": p.restart, "closed": p.closed}
	res.Detail["setup_s_runs"] = setups
	res.Detail["restart_s_runs"] = restarts
	res.Detail["latency_samples"] = len(lat)
	res.Detail["latency_tail_percentile"] = tailPct
	res.Detail["latency_ms"] = map[string]float64{"p75": quantile(lat, 0.75), "p90": quantile(lat, 0.90), "p95": quantile(lat, 0.95), "p99": quantile(lat, 0.99), "max": lat[len(lat)-1]}
	res.Detail["paced_eps"] = w.pacedEPS
	res.Detail["loadgen_late_ms_p50"] = quantile(late, 0.5)
	res.Detail["loadgen_late_ms_p99"] = quantile(late, 0.99)
	res.Detail["oracle_pairs"] = verdict.checked
	res.Detail["oracle_mismatches"] = verdict.mismatched
	res.Detail["flags"] = r.args
	res.Detail["flags_skipped"] = r.flagsSkipped
	res.Detail["probes"] = r.names
	res.Detail["queries"] = len(r.qs)
	res.Detail["failed_share"] = float64(acc.failed) / float64(acc.attempted)
	res.Detail["failures"] = acc.byKind
	if l := quantile(late, 0.99); l > lateLimitMS {
		fmt.Fprintf(os.Stderr, "bench: %s: the load generator itself ran late (p99 %.2f ms > %g ms): paced latencies are void\n", w.name, l, lateLimitMS)
	}

	if !r.cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	res.Detail["end_to_end_traced"] = e2e
	lay := layerInputs{
		r: r, paced: pacedStats, closedPlain: closedStats, closedTraced: tracedHalf,
		closedSampler: closedSampler, pacedSampler: pacedSampler, late: late, latencies: lat, registerMS: registerMS,
		rssEnd: rssEnd, walBytes: walBytes,
	}
	res.Metrics, res.spans, err = lay.metrics()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// latencies returns, for every paced instant, the time from when the
// POST carrying its closing event was due to the first poll that showed
// its result on every probe. Instants that never showed are left out
// here and counted as failures.
func (r *runner) latencies(ps phaseStats) []float64 {
	var out []float64
	for _, rec := range ps.posts {
		for i := rec.first; i < rec.first+rec.n; i++ {
			if vis := r.pl.visible[i]; !vis.IsZero() {
				out = append(out, float64(vis.Sub(rec.due))/1e6)
			}
		}
	}
	return out
}

// lateness is how late the generator itself ran: how long after a paced
// POST could first have gone out (its due time, or the previous POST's
// return on the one connection, whichever is later) it did go out. The
// wait a slow server imposes is not the generator's lateness; it is in
// the latencies, which count from the due time.
func (r *runner) lateness(ps phaseStats) []float64 {
	out := make([]float64, len(ps.posts))
	for i, rec := range ps.posts {
		ready := rec.due
		if i > 0 && ps.posts[i-1].done.After(ready) {
			ready = ps.posts[i-1].done
		}
		out[i] = float64(rec.sent.Sub(ready)) / 1e6
	}
	sort.Float64s(out)
	return out
}

type account struct {
	attempted, failed int
	first             string
	byKind            map[string]int
}

// account counts failures against attempts: events posted, results
// expected on the probes, and oracle-checked pairs.
func (r *runner) account(paced phaseStats, v oracleVerdict) account {
	a := account{byKind: map[string]int{}}
	fail := func(kind string, n int, what string) {
		if n <= 0 {
			return
		}
		a.failed += n
		a.byKind[kind] += n
		if a.first == "" {
			a.first = what
		}
	}
	for _, rec := range r.posts {
		a.attempted += rec.n
		if !ok2xx(rec.status) {
			fail("post_non2xx", rec.n, fmt.Sprintf("POST /events for events %d..%d answered %d", rec.first, rec.first+rec.n-1, rec.status))
		}
	}
	// Every instant from the paced phase on must show on every probe.
	for pi, pr := range r.pl.probes {
		for i := r.p.pacedStart; i < r.p.total; i++ {
			a.attempted++
			if pr.seen[i].IsZero() {
				fail("result_missing", 1, fmt.Sprintf("query %s never showed instant %d", r.names[pi], i))
			}
		}
		fail("result_skipped", pr.skipped, fmt.Sprintf("query %s: %d results shed (skipped)", pr.name, pr.skipped))
		fail("ring_dropped", int(pr.gaps), fmt.Sprintf("query %s: %d results dropped from the ring before they were polled", pr.name, pr.gaps))
		fail("result_stray", pr.strays, fmt.Sprintf("query %s: %d results at instants the stream does not have", pr.name, pr.strays))
		fail("replay_differs", pr.dupDiff, fmt.Sprintf("query %s: %d instants re-emitted with different rows after recovery", pr.name, pr.dupDiff))
	}
	for _, rec := range paced.posts {
		for i := rec.first; i < rec.first+rec.n; i++ {
			if vis := r.pl.visible[i]; !vis.IsZero() && vis.Sub(rec.due) > r.w.latencyLimit {
				fail("result_late", 1, fmt.Sprintf("instant %d visible %.1f ms after its POST was due (limit %s)", i, float64(vis.Sub(rec.due))/1e6, r.w.latencyLimit))
			}
		}
	}
	fail("poll_failed", r.pl.non2xx+r.pl.errs, fmt.Sprintf("%d polls failed", r.pl.non2xx+r.pl.errs))
	a.attempted += v.checked
	fail("oracle_mismatch", v.mismatched, "oracle: "+v.first)
	return a
}

// fetchFinalSegment reads the stream's last oracle segment from the
// ring of every query the poller did not follow. Every query has
// emitted one result per instant since this server started, so the
// probes' sequence number locates the segment in any ring.
func (r *runner) fetchFinalSegment() map[int]map[int][]byte {
	out := map[int]map[int][]byte{}
	if len(r.probe) == len(r.qs) {
		return out
	}
	seg := r.segs[len(r.segs)-1]
	r.pl.mu.Lock()
	since := r.pl.probes[0].since - int64(seg.n)
	r.pl.mu.Unlock()
	polled := map[int]bool{}
	for _, qi := range r.probe {
		polled[qi] = true
	}
	for qi, q := range r.qs {
		if polled[qi] {
			continue
		}
		rows := map[int][]byte{}
		for _, from := range []int64{since, 0} { // the whole ring when the shortcut missed
			status, body, err := r.poster.do(http.MethodGet, fmt.Sprintf("/queries/%s/results?since=%d", q.name, from), nil)
			if err != nil || !ok2xx(status) {
				break
			}
			var rs []polledResult
			if json.Unmarshal(body, &rs) != nil {
				break
			}
			for _, x := range rs {
				if idx := int(x.At.Sub(streamStart) / r.w.slide); idx >= seg.first && idx < seg.first+seg.n {
					rows[idx] = x.Rows
				}
			}
			if len(rows) == seg.n {
				break
			}
		}
		out[qi] = rows
	}
	return out
}
