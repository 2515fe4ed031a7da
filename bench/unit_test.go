package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// >= 1000 samples: p99, which leaves at least ten samples beyond it.
	if v, pct := tailPercentile(seq(1000)); v != 990 || pct != 99 {
		t.Errorf("1000 samples: got value %v at p%v, want 990 at p99", v, pct)
	}
	// Fewer: the highest percentile with ten samples beyond it.
	if v, pct := tailPercentile(seq(200)); v != 190 || pct != 95 {
		t.Errorf("200 samples: got value %v at p%v, want 190 at p95", v, pct)
	}
	if v, pct := tailPercentile(seq(999)); v != 989 || math.Abs(pct-100*989.0/999) > 1e-9 {
		t.Errorf("999 samples: got value %v at p%v, want the 989th", v, pct)
	}
	// Too few samples to leave ten beyond: the smallest, never the max.
	if v, _ := tailPercentile(seq(5)); v != 1 {
		t.Errorf("5 samples: got %v, want 1", v)
	}
	if v, _ := tailPercentile(nil); !math.IsNaN(v) {
		t.Errorf("no samples: got %v, want NaN", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 22, 2, 4, 37, 7, 11, 16, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: extrapolates.
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("two samples: got %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
}

func TestVerdictUnresolvedNeverUnchanged(t *testing.T) {
	tight := []float64{100, 101, 100, 99, 100}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"slower beyond bound", tight, []float64{125, 126, 124, 125, 125}, "lower", "worse"},
		{"faster", tight, []float64{80, 81, 80, 79, 80}, "lower", "better"},
		{"higher is better, dropped", tight, []float64{70, 71, 70, 69, 70}, "higher", "worse"},
		{"inside own noise", tight, []float64{100, 100, 101, 99, 100}, "lower", "unresolved"},
		{"noisier than the bound", []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, "lower", "unresolved"},
		{"small resolved move", tight, []float64{105, 106, 105, 104, 105}, "lower", "within-bound"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "instant", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "post", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "visible-wait", Start: 30, End: 70},  // overlaps post: the union counts once
		{ID: 4, Parent: 1, Name: "poll", Start: 90, End: 120},         // sticks out of the parent: clipped
		{ID: 5, Parent: 2, Name: "ingest.decode", Start: 10, End: 15}, // grandchild: only shrinks post
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - (60 + 10), 2: 25, 3: 40, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP seraph_wal_appends_total Records appended.
# TYPE seraph_wal_appends_total counter
seraph_wal_appends_total 42
seraph_query_eval_seconds_bucket{query="a",le="0.001"} 3
seraph_query_eval_seconds_bucket{query="a",le="+Inf"} 4
seraph_query_eval_seconds_sum{query="a"} 0.5
seraph_query_eval_seconds_count{query="a"} 4
seraph_query_eval_seconds_sum{query="b,\"x\""} 1.25
seraph_query_eval_seconds_count{query="b,\"x\""} 6
seraph_incremental_applied_total{query="a",op="add"} 7
seraph_ingest_lag_records 3
seraph_ingest_lag_records_other 100
`
	s := parseMetrics([]byte(text))
	if v, ok := s.sum("seraph_wal_appends_total"); !ok || v != 42 {
		t.Errorf("counter: got %v %v", v, ok)
	}
	if v, ok := s.sum("seraph_query_eval_seconds_sum"); !ok || v != 1.75 {
		t.Errorf("_sum over labels: got %v %v, want 1.75", v, ok)
	}
	if v, ok := s.sum("seraph_query_eval_seconds_count"); !ok || v != 10 {
		t.Errorf("_count over labels: got %v %v, want 10", v, ok)
	}
	if _, ok := s.sum("seraph_query_eval_seconds_bucket"); ok {
		t.Error("buckets should be dropped")
	}
	if by := s.byLabel("seraph_query_eval_seconds_sum", "query"); by["a"] != 0.5 || by[`b,"x"`] != 1.25 {
		t.Errorf("byLabel with an escaped quote and a comma in the value: %v", by)
	}
	if by := s.byLabel("seraph_incremental_applied_total", "op"); by["add"] != 7 {
		t.Errorf("second label of a series: %v", by)
	}

	// A series the server does not export is missing, not zero, and the
	// metric derived from it prints as null.
	if _, ok := s.sum("seraph_no_such_series"); ok {
		t.Error("missing family reported present")
	}
	d := delta(s, s, "seraph_no_such_series")
	if d.ok {
		t.Error("delta of a missing family should be missing")
	}
	b, err := json.Marshal(fromOpt(d, "count"))
	if err != nil || string(b) != `{"value":null,"unit":"count"}` {
		t.Errorf("missing metric renders as %s (%v), want a null value", b, err)
	}
	if got := delta(s, s, "seraph_wal_appends_total"); !got.ok || got.v != 0 {
		t.Errorf("delta of a present family: %+v", got)
	}

	if got := gaugeSum([]byte(text), "seraph_ingest_lag_records"); got != 3 {
		t.Errorf("gaugeSum picked up a longer family name: got %v, want 3", got)
	}
}

func TestFlagProbe(t *testing.T) {
	help := `Usage of ./seraph-server:
  -addr string
    	listen address (default ":7687")
  -data-dir string
    	durable mode: log events under this directory
  -delta-eval
    	maintain query results from window deltas (see -delta-bypass-ratio)
  -fsync string
    	durable-mode WAL sync policy (default "always")
`
	defined := parseFlagHelp(help)
	for _, f := range []string{"addr", "data-dir", "delta-eval", "fsync"} {
		if !defined[f] {
			t.Errorf("flag %s not found", f)
		}
	}
	if defined["delta-bypass-ratio"] || defined["mqo"] {
		t.Errorf("found flags that are only mentioned or absent: %v", defined)
	}
	args, skipped := filterFlags(defined, [][]string{{"-delta-eval"}, {"-mqo"}, {"-data-dir", "/x"}, {"-history-retention", "16"}})
	if strings.Join(args, " ") != "-delta-eval -data-dir /x" || strings.Join(skipped, " ") != "-mqo -history-retention" {
		t.Errorf("args %v skipped %v", args, skipped)
	}
}

func TestBacklogGrowing(t *testing.T) {
	at := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if growing(at, []float64{0, 8, 0, 0, 8, 0, 8, 0, 0}, 16) {
		t.Error("an in-flight batch now and then is not growth")
	}
	if !growing(at, []float64{0, 0, 0, 10, 20, 30, 40, 50, 60}, 16) {
		t.Error("a steadily rising backlog is growth")
	}
	if growing(at, []float64{90, 60, 30, 0, 0, 0, 0, 0, 0}, 16) {
		t.Error("a backlog drained in the first third is not growth")
	}
}

// fakeServer answers POST /events and GET /queries/q/results like the
// real one, with one result per event, and can stall one POST.
type fakeServer struct {
	mu      sync.Mutex
	slide   time.Duration
	events  int
	stallAt int // the POST carrying this event sleeps first
	stall   time.Duration
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/events":
		f.mu.Lock()
		first := f.events
		f.mu.Unlock()
		if first == f.stallAt {
			time.Sleep(f.stall)
		}
		f.mu.Lock()
		f.events++
		f.mu.Unlock()
		fmt.Fprint(w, `{"ingested":1}`)
	case r.Method == http.MethodGet:
		since, _ := strconv.Atoi(r.URL.Query().Get("since"))
		f.mu.Lock()
		n := f.events
		f.mu.Unlock()
		var out []polledResult
		for i := since; i < n; i++ {
			out = append(out, polledResult{Seq: int64(i + 1), At: streamStart.Add(time.Duration(i) * f.slide), Rows: json.RawMessage(`[]`)})
		}
		if out == nil {
			out = []polledResult{}
		}
		_ = json.NewEncoder(w).Encode(out)
	}
}

// TestOpenLoopDueTimeAccounting stalls the server once and checks the
// two halves of open-loop accounting: the requests queued behind the
// stall are charged from when they were due, not from when they could
// finally be sent, and none of that wait counts as the generator
// running late.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const n, rate, stallAt = 20, 100.0, 5 // one POST every 10 ms
	stall := 100 * time.Millisecond
	fs := &fakeServer{slide: time.Second, stallAt: stallAt, stall: stall}
	srv := httptest.NewServer(fs)
	defer srv.Close()

	w := &workloadSpec{name: "fake", slide: fs.slide, perPost: 1, pacedEPS: rate, latencyLimit: time.Second}
	in := &inputs{lines: make([][]byte, n)}
	for i := range in.lines {
		in.lines[i] = []byte("{}\n")
	}
	r := &runner{w: w, in: in, p: plan{paced: n, total: n}, poster: newConn(srv.URL)}
	r.pl = newPoller(srv.URL, []string{"q"}, n, fs.slide, nil, false)
	r.pl.run()
	defer r.pl.halt()

	if _, err := r.paced(); err != nil {
		t.Fatal(err)
	}
	ps := phaseStats{posts: r.posts}
	lat := r.latencies(ps)
	if len(lat) != n {
		t.Fatalf("%d latency samples, want %d", len(lat), n)
	}
	stallMS := float64(stall) / 1e6
	if lat[stallAt] < stallMS {
		t.Errorf("stalled request: latency %.1f ms, want >= %.0f ms", lat[stallAt], stallMS)
	}
	// The next request was due 10 ms into the stall and sent only after
	// it: from its due time it waited ~90 ms, from its send time ~0.
	next := r.posts[stallAt+1]
	if sentLate := next.sent.Sub(next.due); sentLate < 80*time.Millisecond {
		t.Fatalf("test set-up: request after the stall went out only %s late", sentLate)
	}
	if lat[stallAt+1] < stallMS-20 {
		t.Errorf("request queued behind the stall: latency %.1f ms from its due time, want about %.0f ms", lat[stallAt+1], stallMS-10)
	}
	if before := median(lat[:stallAt]); before > 50 {
		t.Errorf("requests before the stall: median latency %.1f ms, want a few ms", before)
	}
	late := r.lateness(ps)
	if worst := late[len(late)-1]; worst > 50 {
		t.Errorf("generator lateness %.1f ms: the server's stall was charged to the generator", worst)
	}
}
