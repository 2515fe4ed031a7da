//go:build !race

// Heap figures under the race detector are not what a production build
// retains, so this test runs in ordinary builds only.

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/value"
)

// TestServerHeapFlat: a server with seraph-server's default options
// retains no more heap after 25 000 events than after 5 000. Each event
// carries fresh relationship ids, so any store that keeps every event
// grows by hundreds of megabytes between the two readings.
func TestServerHeapFlat(t *testing.T) {
	srv := New(engine.WithHistoryRetention(16))
	checkHeapFlat(t, srv, []string{`REGISTER QUERY flat STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N)-[r:F]->(b:N) WITHIN PT1M EMIT count(r) AS c SNAPSHOT EVERY PT1M }`},
		func(i int, at time.Time) []byte { return heapEvent(t, i, 8, at) })
}

// TestServerHeapFlatDelta is TestServerHeapFlat for the configuration
// the serving benchmark runs (delta evaluation, shared groups), on a
// stream whose every event carries fresh node and relationship ids.
// The two queries differ only in a residual, so they share one group
// and its rolling window store; a store that keeps any trace of an
// evicted node grows with the event count.
func TestServerHeapFlatDelta(t *testing.T) {
	srv := New(engine.WithHistoryRetention(16), engine.WithDeltaEval(true), engine.WithSharedEval(true))
	var regs []string
	for _, k := range []int{3, 7} {
		regs = append(regs, fmt.Sprintf(`REGISTER QUERY flat%d STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N)-[r:F]->(b:N) WITHIN PT1M WHERE r.v > %d EMIT count(r) AS c SNAPSHOT EVERY PT1M }`, k, k))
	}
	checkHeapFlat(t, srv, regs, func(i int, at time.Time) []byte { return freshHeapEvent(t, i, 8, at) })
	if gs := srv.Engine().SharedGroups(); len(gs) != 1 || len(gs[0].Members) != 2 || !gs[0].DeltaShared {
		t.Errorf("groups %+v, want both queries in one delta-shared group", gs)
	}
}

// checkHeapFlat registers the queries, posts 5 000 events from event,
// then 20 000 more, and fails if the heap after GC grew by more than
// 8 MB between the two readings.
func checkHeapFlat(t *testing.T, srv *Server, regs []string, event func(i int, at time.Time) []byte) {
	t.Helper()
	h := srv.Handler()
	for _, reg := range regs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(reg)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", rec.Code, rec.Body)
		}
	}

	const batch = 50
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	next := 0 // events posted so far
	postEvents := func(n int) {
		for end := next + n; next < end; {
			var body strings.Builder
			for stop := min(next+batch, end); next < stop; next++ {
				body.Write(event(next, base.Add(time.Duration(next)*time.Second)))
				body.WriteByte('\n')
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/events", strings.NewReader(body.String())))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /events at event %d: %d %s", next, rec.Code, rec.Body)
			}
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	postEvents(5000)
	at5k := heap()
	postEvents(20000)
	at25k := heap()
	runtime.KeepAlive(srv)
	grew := int64(at25k) - int64(at5k)
	t.Logf("heap after GC: %.1f MB at 5 000 events, %.1f MB at 25 000 (%+.1f MB)",
		float64(at5k)/(1<<20), float64(at25k)/(1<<20), float64(grew)/(1<<20))
	if grew > 8<<20 {
		t.Fatalf("heap grew %.1f MB over 20 000 events, want at most 8 MB", float64(grew)/(1<<20))
	}
}

// heapEvent encodes event i: eight :F relationships with fresh ids over
// a fixed set of sixteen :N nodes.
func heapEvent(t *testing.T, i, rels int, at time.Time) []byte {
	t.Helper()
	g := pg.New()
	for n := int64(0); n < 16; n++ {
		g.AddNode(&value.Node{ID: n, Labels: []string{"N"}})
	}
	for r := 0; r < rels; r++ {
		id := int64(i*rels + r)
		if err := g.AddRel(&value.Relationship{ID: id, StartID: id % 16, EndID: (id + 1) % 16, Type: "F",
			Props: map[string]value.Value{"seq": value.NewInt(id), "tag": value.NewString(fmt.Sprint("t", id))}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ingest.Encode(g, at)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// freshHeapEvent encodes event i: a chain of rels+1 fresh :N nodes
// joined by rels fresh :F relationships.
func freshHeapEvent(t *testing.T, i, rels int, at time.Time) []byte {
	t.Helper()
	g := pg.New()
	first := int64(i * (rels + 1))
	for n := first; n <= first+int64(rels); n++ {
		g.AddNode(&value.Node{ID: n, Labels: []string{"N"}, Props: map[string]value.Value{"name": value.NewString(fmt.Sprint("n", n))}})
	}
	for r := 0; r < rels; r++ {
		id := int64(i*rels + r)
		if err := g.AddRel(&value.Relationship{ID: id, StartID: first + int64(r), EndID: first + int64(r) + 1, Type: "F",
			Props: map[string]value.Value{"v": value.NewInt(id % 10), "tag": value.NewString(fmt.Sprint("t", id))}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ingest.Encode(g, at)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
