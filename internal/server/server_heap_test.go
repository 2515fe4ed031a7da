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
	h := srv.Handler()
	reg := `REGISTER QUERY flat STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N)-[r:F]->(b:N) WITHIN PT1M EMIT count(r) AS c SNAPSHOT EVERY PT1M }`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(reg)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}

	const relsPerEvent, batch = 8, 50
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	next := 0 // events posted so far
	postEvents := func(n int) {
		for end := next + n; next < end; {
			var body strings.Builder
			for stop := min(next+batch, end); next < stop; next++ {
				body.Write(heapEvent(t, next, relsPerEvent, base.Add(time.Duration(next)*time.Second)))
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
