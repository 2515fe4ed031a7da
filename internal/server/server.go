// Package server exposes the Seraph continuous query engine as an HTTP
// service — the "Graph Stream Processing engine with Seraph language
// support" the paper sketches as its implementation plan (Section 6).
//
// Endpoints:
//
//	POST   /queries             register a Seraph query (body: text)
//	GET    /queries             list registered queries with stats
//	GET    /queries/{name}      one query's stats
//	DELETE /queries/{name}      deregister
//	GET    /queries/{name}/results?since=N   buffered results after seq N
//	GET    /groups              shared evaluation groups (multi-query optimization)
//	POST   /events              ingest NDJSON graph events
//	GET    /checkpoint          download an engine checkpoint
//	GET    /metrics             Prometheus text-format metrics
//	GET    /debug/pprof/*       profiling (opt-in via EnablePprof)
//	GET    /healthz             liveness
//
// Results are buffered per query in a bounded ring, each encoded once
// as it is emitted; clients poll with the last sequence number they
// saw. Results evicted by wrap-around are counted per ring and surfaced
// on GET /queries/{name} and /metrics so a slow poller can detect a gap.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/metrics"
	"seraph/internal/pg"
	"seraph/internal/queue"
)

// maxRequestBody bounds the POST /queries request body (the NDJSON
// /events stream is unbounded by design; its per-line size is bounded
// by the scanner buffer instead).
const maxRequestBody = 1 << 20

// Server is the HTTP facade over an engine.
type Server struct {
	mu      sync.Mutex
	engine  *engine.Engine
	buffers map[string]*resultRing
	events  int
	pprof   bool

	topo topologyIndex // relationship topology within the widest window

	log        *slog.Logger
	reg        *metrics.Registry // the engine's registry; nil when disabled
	ingested   *metrics.Counter  // seraph_ingest_events_total
	ingestErrs *metrics.Counter  // seraph_ingest_errors_total

	// Overload behaviour (see overload.go): retryAfter is the hint on
	// 429 responses; iq, when non-nil, routes POST /events through a
	// bounded in-process queue instead of pushing synchronously.
	retryAfter time.Duration
	iq         *ingestQueue
}

// New returns a server wrapping a fresh engine configured with the
// given options (e.g. engine.WithParallelism to bound how many
// registered queries evaluate concurrently per ingested event batch).
// The engine records into a server-owned metrics registry served on
// GET /metrics; pass engine.WithMetrics to override (nil disables).
func New(opts ...engine.Option) *Server {
	s := &Server{buffers: map[string]*resultRing{}}
	base := []engine.Option{
		engine.WithMetrics(metrics.NewRegistry()),
		engine.WithLogger(slog.Default()),
	}
	s.engine = engine.New(append(base, opts...)...)
	s.finishInit()
	return s
}

// Restore returns a server whose engine resumes from a checkpoint
// (see /checkpoint). Each restored query gets a fresh result buffer.
// Extra engine options (parallelism, metrics, …) are applied on top of
// the checkpoint-derived configuration.
func Restore(r io.Reader, opts ...engine.Option) (*Server, error) {
	s := &Server{buffers: map[string]*resultRing{}}
	extra := append([]engine.Option{
		engine.WithMetrics(metrics.NewRegistry()),
		engine.WithLogger(slog.Default()),
	}, opts...)
	eng, err := engine.Restore(r, func(name string) engine.Sink {
		// The engine (and its registry) is not assigned yet while
		// Restore runs; finishInit binds each ring's counter afterwards.
		ring := &resultRing{}
		s.buffers[name] = ring
		return ring.add
	}, extra...)
	if err != nil {
		return nil, err
	}
	s.engine = eng
	s.finishInit()
	return s, nil
}

// finishInit wires the server-level instruments to the engine's
// registry (which may be nil when metrics are disabled) and seeds the
// topology index from the engine's window.
func (s *Server) finishInit() {
	s.log = slog.Default()
	s.retryAfter = time.Second
	s.reg = s.engine.Metrics()
	s.ingested = s.reg.Counter("seraph_ingest_events_total", "Events applied via POST /events.")
	s.ingestErrs = s.reg.Counter("seraph_ingest_errors_total", "POST /events requests that failed mid-batch.")
	for name, ring := range s.buffers {
		s.bindRing(name, ring)
	}
	s.topo.setWidth(s.engine)
	// A restored engine's window holds events admitted before the
	// restart; a reuse that pairs with one of them must still get 409.
	s.topo.mu.Lock()
	for _, el := range s.engine.Window("") {
		s.topo.record(el.Graph, el.Time)
	}
	s.topo.mu.Unlock()
}

// bindRing attaches a result ring to the server's registry and logger,
// registering its dropped-results counter eagerly so the family shows
// up on /metrics (at zero) before any overflow happens.
func (s *Server) bindRing(name string, r *resultRing) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.name = name
	r.server = s
	r.dropCtr = s.reg.Counter("seraph_result_ring_dropped_total",
		"Results evicted from the ring.",
		metrics.L("query", name))
}

// Engine exposes the wrapped engine (tests, embedding).
func (s *Server) Engine() *engine.Engine { return s.engine }

// SetLogger replaces the server's structured logger (default
// slog.Default).
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// EnablePprof mounts net/http/pprof under /debug/pprof/ on handlers
// built after the call. Profiling endpoints can leak operational detail,
// so they are opt-in.
func (s *Server) EnablePprof() { s.pprof = true }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/queries/", s.handleQuery)
	mux.HandleFunc("/groups", s.handleGroups)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.Handle("/metrics", s.reg.Handler())
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// HTTPServer wraps Handler in an http.Server with production defaults:
// header/read/write timeouts, a bounded header size, and an idle
// timeout. Pair it with a signal-driven Shutdown (see cmd/seraph-server)
// so in-flight ingests drain instead of being killed.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute, // /events may stream large batches
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleCheckpoint streams a checkpoint of the engine's durable state.
// Restore a server from it with server.Restore.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.engine.Checkpoint(w); err != nil {
		// Headers are already out; the body carries the error.
		fmt.Fprintf(w, "\n{\"error\": %q}\n", err.Error())
	}
}

// handleGroups lists the live shared evaluation groups (multi-query
// optimization): canonical fingerprint, member queries, and whether the
// group runs delta-maintained. Empty unless the engine was built with
// WithSharedEval (server flag -mqo).
func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	groups := s.engine.SharedGroups()
	if groups == nil {
		groups = []engine.GroupInfo{}
	}
	writeJSON(w, http.StatusOK, groups)
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		type item struct {
			Name  string       `json:"name"`
			Stats engine.Stats `json:"stats"`
			// Shared evaluation group (multi-query optimization); empty
			// when the query evaluates unshared.
			Group     string `json:"group,omitempty"`
			GroupSize int    `json:"group_size,omitempty"`
		}
		var out []item
		for _, q := range s.engine.Queries() {
			gid, gn := q.SharedGroup()
			out = append(out, item{Name: q.Name(), Stats: q.Stats(), Group: gid, GroupSize: gn})
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		body := new(strings.Builder)
		if _, err := copyBody(body, r); err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, err)
			return
		}
		ring := &resultRing{}
		q, err := s.engine.RegisterSource(body.String(), ring.add)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		s.bindRing(q.Name(), ring)
		s.mu.Lock()
		s.buffers[q.Name()] = ring
		s.mu.Unlock()
		s.topo.setWidth(s.engine)
		reg := q.Registration()
		s.log.Info("query registered",
			"query", q.Name(), "within", reg.MaxWithin(), "stream", q.Stream())
		writeJSON(w, http.StatusCreated, map[string]any{"name": q.Name()})
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/queries/")
	parts := strings.Split(rest, "/")
	name := parts[0]
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing query name"))
		return
	}
	switch {
	case len(parts) == 2 && parts[1] == "results" && r.Method == http.MethodGet:
		s.mu.Lock()
		ring, ok := s.buffers[name]
		s.mu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("query %q not registered", name))
			return
		}
		since := int64(0)
		if v := r.URL.Query().Get("since"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("invalid since: %v", err))
				return
			}
			since = n
		}
		writeResults(w, ring.after(since))
	case len(parts) == 1 && r.Method == http.MethodGet:
		for _, q := range s.engine.Queries() {
			if q.Name() == name {
				out := map[string]any{"name": name, "stats": q.Stats()}
				if gid, gn := q.SharedGroup(); gid != "" {
					out["group"] = gid
					out["group_size"] = gn
				}
				if lat := q.EvalLatency(); lat.Count > 0 {
					out["latency_ms"] = map[string]any{
						"count": lat.Count,
						"mean":  ms(lat.Mean()),
						"p50":   ms(lat.P50),
						"p95":   ms(lat.P95),
						"p99":   ms(lat.P99),
					}
				}
				s.mu.Lock()
				ring := s.buffers[name]
				s.mu.Unlock()
				if ring != nil {
					out["results"] = ring.info()
				}
				writeJSON(w, http.StatusOK, out)
				return
			}
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("query %q not registered", name))
	case len(parts) == 1 && r.Method == http.MethodDelete:
		if err := s.engine.Deregister(name); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		s.mu.Lock()
		delete(s.buffers, name)
		s.mu.Unlock()
		s.topo.setWidth(s.engine)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// scanBufs recycles POST /events scanner buffers (lines up to 64 KiB).
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// handleEvents ingests NDJSON events: each line one graph event, pushed
// to the engine (advancing the virtual clock) or, in queue mode, enqueued.
//
// Ingestion is line-by-line, so a mid-batch failure leaves the events
// before the bad line applied. The applied count is recorded
// unconditionally — s.events and the engine always agree — and error
// responses carry "ingested"/"total" so the client knows exactly how
// far the batch got and can resume after the failing line.
//
// Conflicts the posted data causes are 409 (see admit), as is a window
// union the events make inconsistent (Def. 5.4).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	iq := s.iq
	s.mu.Unlock()
	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(*buf, 1<<26)  // longer lines grow a private buffer
	applied, lineNo := 0, 0 // events accepted by the engine or queue; lines read
	commit := func() int {
		s.mu.Lock()
		s.events += applied
		total := s.events
		s.mu.Unlock()
		s.ingested.Add(int64(applied))
		return total
	}
	// A 429 (queue or engine full) is backpressure, not an error.
	fail := func(status int, err error) {
		total := commit()
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		} else {
			s.ingestErrs.Inc()
			s.log.Error("ingest failed mid-batch",
				"line", lineNo, "ingested", applied, "err", err)
		}
		writeJSON(w, status, map[string]any{
			"error":    err.Error(),
			"ingested": applied,
			"total":    total,
		})
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes()) // Decode does not retain it
		if len(line) == 0 {
			continue
		}
		lineNo++
		g, ts, err := ingest.Decode(line)
		if err != nil {
			fail(http.StatusBadRequest, fmt.Errorf("event %d: %w", lineNo, err))
			return
		}
		if status, err := s.admit(iq, line, g, ts); err != nil {
			fail(status, fmt.Errorf("event %d: %w", lineNo, err))
			return
		}
		// The event is accepted now: count it even if evaluation below
		// fails, so the reported count matches engine state.
		applied++
		if iq != nil {
			continue // the background connector pushes and evaluates
		}
		if err := s.engine.AdvanceTo(ts); err != nil {
			status := http.StatusInternalServerError
			if errors.As(err, new(*pg.Inconsistency)) {
				status = http.StatusConflict
			}
			fail(status, err)
			return
		}
	}
	if err := sc.Err(); err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	total := commit()
	writeJSON(w, http.StatusOK, map[string]any{"ingested": applied, "total": total})
}

// admit checks an event against the topology index, enqueues or pushes
// it, and records it once accepted; on failure it returns 409 (topology
// conflict, out-of-order push), 429 (queue or engine full) or 500. The
// index lock spans the hand-off so only one of two concurrent conflicting
// events gets in. Producers are serialised downstream anyway, and the
// drain goroutine never takes the lock (it holds it only during a
// durable server's boot replay, before any producer can), so a Produce
// blocked on a full topic only delays producers that would block too.
func (s *Server) admit(iq *ingestQueue, line []byte, g *pg.Graph, ts time.Time) (int, error) {
	s.topo.mu.Lock()
	defer s.topo.mu.Unlock()
	if err := s.topo.check(g, ts); err != nil {
		return http.StatusConflict, err
	}
	if iq != nil {
		// Produce retains the value; line is the scanner's buffer.
		if _, err := iq.broker.Produce(ingestTopic, "", bytes.Clone(line), ts); err != nil {
			if queue.IsTransient(err) {
				return http.StatusTooManyRequests, err
			}
			return http.StatusInternalServerError, err
		}
	} else if err := s.engine.Push(g, ts); err != nil {
		if engine.IsBusy(err) {
			return http.StatusTooManyRequests, err
		}
		return http.StatusConflict, err
	}
	s.topo.record(g, ts)
	return 0, nil
}

// ms renders a duration as fractional milliseconds for JSON payloads.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}

func copyBody(dst *strings.Builder, r *http.Request) (int64, error) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, 1<<22)
	var n int64
	for sc.Scan() {
		dst.WriteString(sc.Text())
		dst.WriteByte('\n')
		n += int64(len(sc.Text())) + 1
	}
	return n, sc.Err()
}
