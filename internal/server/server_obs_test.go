package server

// Observability & hardening regression tests: partial-batch ingest
// accounting, result-ring overflow tracking, the /metrics endpoint, and
// graceful shutdown draining an in-flight /events request.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/workload"
)

// TestPartialBatchIngestAccounting: a mid-batch decode failure must
// report how many events were actually applied, and the server's total
// must match — engine state and the counter may not diverge (the
// original bug: the 4xx path returned without updating s.events).
func TestPartialBatchIngestAccounting(t *testing.T) {
	srv := New()
	ts := newHTTPTestServer(t, srv)

	lines := strings.Split(strings.TrimSpace(figure1NDJSON(t)), "\n")
	if len(lines) < 4 {
		t.Fatalf("need ≥4 events, got %d", len(lines))
	}
	// Two good events, then garbage, then more good events that must
	// NOT be applied.
	batch := lines[0] + "\n" + lines[1] + "\nnot json\n" + lines[2] + "\n" + lines[3] + "\n"
	resp, m := post(t, ts.URL+"/events", batch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if m["ingested"].(float64) != 2 {
		t.Fatalf("error response ingested = %v, want 2", m["ingested"])
	}
	if m["total"].(float64) != 2 {
		t.Fatalf("error response total = %v, want 2", m["total"])
	}
	if m["error"] == nil {
		t.Fatal("error response missing error text")
	}
	srv.mu.Lock()
	events := srv.events
	srv.mu.Unlock()
	if events != 2 {
		t.Fatalf("s.events = %d, want 2", events)
	}

	// The client resumes after the failing line; totals line up.
	resp, m = post(t, ts.URL+"/events", strings.Join(lines[2:], "\n")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	if m["total"].(float64) != float64(len(lines)) {
		t.Fatalf("total = %v, want %d", m["total"], len(lines))
	}
	if srv.ingestErrs.Value() != 1 {
		t.Errorf("ingest error counter = %d, want 1", srv.ingestErrs.Value())
	}
	if srv.ingested.Value() != int64(len(lines)) {
		t.Errorf("ingested counter = %d, want %d", srv.ingested.Value(), len(lines))
	}
}

// TestResultRingOverflowDropped: once the ring wraps, the dropped
// counter and the lowest retained seq expose the gap to slow pollers,
// and the wrap is logged once, not once per evicted result.
func TestResultRingOverflowDropped(t *testing.T) {
	srv := New()
	var logs strings.Builder
	srv.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	ring := &resultRing{}
	srv.bindRing("q", ring)
	const extra = 5000 - resultBufferSize
	for i := 0; i < resultBufferSize+extra; i++ {
		ring.add(engine.Result{Query: "q", Table: &eval.Table{Cols: []string{"x"}}})
	}
	info := ring.info()
	if info.Dropped != extra {
		t.Errorf("dropped = %d, want %d", info.Dropped, extra)
	}
	if info.LowestSeq != extra+1 {
		t.Errorf("lowest seq = %d, want %d", info.LowestSeq, extra+1)
	}
	if info.LatestSeq != resultBufferSize+extra {
		t.Errorf("latest seq = %d", info.LatestSeq)
	}
	if info.Buffered != resultBufferSize {
		t.Errorf("buffered = %d", info.Buffered)
	}
	var buf strings.Builder
	if err := srv.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf(`seraph_result_ring_dropped_total{query="q"} %d`, extra)) {
		t.Errorf("dropped counter missing from exposition:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "seraph_result_ring_dropped_total") {
		t.Errorf("log records = %d, want one naming the counter:\n%s", len(lines), logs.String())
	}
}

// TestMetricsEndpoint drives the full pipeline and asserts the
// acceptance-criteria families appear on GET /metrics.
func TestMetricsEndpoint(t *testing.T) {
	srv := New()
	ts := newHTTPTestServer(t, srv)

	if resp, m := post(t, ts.URL+"/queries", workload.StudentTrickQuery); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, m)
	}
	if resp, m := post(t, ts.URL+"/events", figure1NDJSON(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %v", resp.StatusCode, m)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		`seraph_query_eval_seconds_bucket{query="student_trick",le=`,
		`seraph_query_eval_seconds_count{query="student_trick"} 12`,
		`seraph_query_rows_emitted_total{query="student_trick"}`,
		`seraph_snapshot_cache_hits_total{query="student_trick"}`,
		`seraph_snapshot_cache_misses_total{query="student_trick"}`,
		"seraph_scheduler_queue_depth",
		`seraph_result_ring_dropped_total{query="student_trick"} 0`,
		"seraph_ingest_events_total 5",
		"seraph_ingest_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The per-query endpoint carries the new figures too.
	var q map[string]any
	get(t, ts.URL+"/queries/student_trick", &q)
	stats := q["stats"].(map[string]any)
	if stats["Evaluations"].(float64) != 12 {
		t.Fatalf("stats: %v", stats)
	}
	if stats["EvalNanos"].(float64) <= 0 {
		t.Errorf("EvalNanos missing: %v", stats)
	}
	lat := q["latency_ms"].(map[string]any)
	if lat["count"].(float64) != 12 || lat["p95"].(float64) <= 0 {
		t.Errorf("latency_ms: %v", lat)
	}
	results := q["results"].(map[string]any)
	if results["latest_seq"].(float64) != 12 || results["dropped"].(float64) != 0 {
		t.Errorf("results info: %v", results)
	}
}

// TestGracefulShutdownDrainsInflight: Shutdown must let a streaming
// /events request finish (all its events applied, 200 returned) while
// refusing new connections — the original server killed in-flight
// ingests on SIGTERM.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	srv := New()
	hs := srv.HTTPServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	lines := strings.Split(strings.TrimSpace(figure1NDJSON(t)), "\n")
	pr, pw := io.Pipe()
	type postResult struct {
		resp *http.Response
		body map[string]any
		err  error
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url+"/events", "application/x-ndjson", pr)
		pres := postResult{resp: resp, err: err}
		if err == nil {
			defer resp.Body.Close()
			_ = json.NewDecoder(resp.Body).Decode(&pres.body)
		}
		posted <- pres
	}()

	// First event in; wait until the handler has pushed it (the engine
	// clock moves on Push).
	if _, err := io.WriteString(pw, lines[0]+"\n"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Engine().Now().IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("handler never consumed the first event")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Shutdown with the request still streaming.
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- hs.Shutdown(ctx)
	}()

	// The listener closes promptly: new connections must fail while the
	// in-flight request keeps going.
	newConnRefused := false
	for i := 0; i < 200; i++ {
		c := &http.Client{Timeout: 250 * time.Millisecond}
		if _, err := c.Get(url + "/healthz"); err != nil {
			newConnRefused = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !newConnRefused {
		t.Error("new connections still accepted during shutdown")
	}

	// Finish the batch; the drained request must succeed in full.
	for _, l := range lines[1:] {
		if _, err := io.WriteString(pw, l+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()

	pres := <-posted
	if pres.err != nil {
		t.Fatalf("in-flight request failed: %v", pres.err)
	}
	if pres.resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", pres.resp.StatusCode)
	}
	if pres.body["ingested"].(float64) != float64(len(lines)) {
		t.Fatalf("ingested = %v, want %d", pres.body["ingested"], len(lines))
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}
}

// TestQueriesBodyLimit: an oversized /queries body is rejected with 413
// instead of being read to completion.
func TestQueriesBodyLimit(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/queries", strings.Repeat("y", maxRequestBody+1024))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("queries status = %d, want 413", resp.StatusCode)
	}
}

// newHTTPTestServer wires a *Server (not just its handler) so tests can
// reach into counters while talking over real HTTP.
func newHTTPTestServer(t *testing.T, s *Server) *httptestServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { _ = hs.Close() })
	return &httptestServer{URL: "http://" + ln.Addr().String()}
}

type httptestServer struct{ URL string }
