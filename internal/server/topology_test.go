package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/value"
	"seraph/internal/wal"
)

// size reports how many relationships the index remembers.
func (x *topologyIndex) size() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.cur) + len(x.prev)
}

// relEventNDJSON encodes one event: nodes start and end (:N) joined by
// relationship relID of type typ.
func relEventNDJSON(t *testing.T, relID, start, end int64, typ string, at time.Time) string {
	t.Helper()
	g := pg.New()
	g.AddNode(&value.Node{ID: start, Labels: []string{"N"}})
	g.AddNode(&value.Node{ID: end, Labels: []string{"N"}})
	if err := g.AddRel(&value.Relationship{ID: relID, StartID: start, EndID: end, Type: typ}); err != nil {
		t.Fatal(err)
	}
	data, err := ingest.Encode(g, at)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// TestEventTopologyConflict: a relationship id reused with other
// endpoints is 409 while it can share a window with its first use, and
// 200 once 2W of event time (W = the widest registered WITHIN) has
// passed; the index never holds more than 2W of events, and nothing
// once no query is registered.
func TestEventTopologyConflict(t *testing.T) {
	const reg = `REGISTER QUERY q STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N)-[r:F]->(b:N) WITHIN PT1M EMIT count(r) AS c SNAPSHOT EVERY PT10S }`
	const w = time.Minute
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	for _, mode := range []string{"sync", "durable"} {
		t.Run(mode, func(t *testing.T) {
			srv := New()
			if mode == "durable" {
				var err error
				if srv, err = OpenDurable(DurableConfig{Dir: t.TempDir(), Fsync: wal.FsyncNever}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			if resp, m := post(t, ts.URL+"/queries", reg); resp.StatusCode != http.StatusCreated {
				t.Fatalf("register: %d %v", resp.StatusCode, m)
			}
			postRel := func(relID, start, end int64, at time.Duration, want int) {
				t.Helper()
				resp, m := post(t, ts.URL+"/events", relEventNDJSON(t, relID, start, end, "F", base.Add(at)))
				if resp.StatusCode != want {
					t.Fatalf("rel %d %d->%d at +%s: %d %v, want %d", relID, start, end, at, resp.StatusCode, m, want)
				}
			}
			postRel(7, 1, 2, time.Second, http.StatusOK)
			postRel(7, 2, 1, 30*time.Second, http.StatusConflict)
			postRel(7, 1, 2, 40*time.Second, http.StatusOK)
			postRel(7, 2, 1, 40*time.Second+2*w+time.Second, http.StatusOK)

			// One fresh relationship every 10 s: the index keeps every
			// event less than W old and none more than 2W old.
			const step = 10 * time.Second
			for i := 0; i < 60; i++ {
				postRel(int64(100+i), 1, 2, 5*time.Minute+time.Duration(i)*step, http.StatusOK)
				lo, hi := min(i+1, int(w/step)), min(i+1, int(2*w/step)+1)
				if n := srv.topo.size(); n < lo || n > hi {
					t.Fatalf("after event %d the index holds %d relationships, want %d..%d", i, n, lo, hi)
				}
			}

			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/q", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if n := srv.topo.size(); n != 0 {
				t.Fatalf("with no query registered the index holds %d relationships", n)
			}
		})
	}
}

// TestEventTopologyConflictAfterRestart: a durable server rebuilds the
// topology index on boot, so a relationship id reused with other
// endpoints still gets 409 after a restart — whether the first use is
// in the recovered window (graceful Close, final checkpoint) or only in
// the log past the checkpoint (abandoned server).
func TestEventTopologyConflictAfterRestart(t *testing.T) {
	const reg = `REGISTER QUERY q STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N)-[r:F]->(b:N) WITHIN PT1M EMIT count(r) AS c SNAPSHOT EVERY PT10S }`
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	for _, mode := range []string{"close", "abandon"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DurableConfig{Dir: dir, CheckpointEvery: 2}
			srv, err := OpenDurable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			ts := httptest.NewServer(srv.Handler())
			if resp, m := post(t, ts.URL+"/queries", reg); resp.StatusCode != http.StatusCreated {
				t.Fatalf("register: %d %v", resp.StatusCode, m)
			}
			postRel := func(url string, relID, start, end int64, at time.Duration, want int) {
				t.Helper()
				resp, m := post(t, url+"/events", relEventNDJSON(t, relID, start, end, "F", base.Add(at)))
				if resp.StatusCode != want {
					t.Fatalf("rel %d %d->%d at +%s: %d %v, want %d", relID, start, end, at, resp.StatusCode, m, want)
				}
			}
			postRel(ts.URL, 7, 1, 2, time.Second, http.StatusOK)
			postRel(ts.URL, 6, 1, 2, 2*time.Second, http.StatusOK)
			waitElements(t, srv, 2)
			// The second delivered event triggers a checkpoint; the third
			// event stays past its offsets.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, err := os.Stat(filepath.Join(dir, "checkpoints", "MANIFEST.json")); err == nil {
					break
				} else if !errors.Is(err, os.ErrNotExist) || time.Now().After(deadline) {
					t.Fatalf("no checkpoint after two events: %v", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			postRel(ts.URL, 8, 3, 4, 3*time.Second, http.StatusOK)
			waitElements(t, srv, 3)
			ts.Close()
			if mode == "close" {
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			}

			srv2, err := OpenDurable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv2.Close() })
			ts2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(ts2.Close)
			postRel(ts2.URL, 7, 2, 1, 30*time.Second, http.StatusConflict)
			postRel(ts2.URL, 8, 4, 3, 30*time.Second, http.StatusConflict)
			postRel(ts2.URL, 9, 1, 2, 40*time.Second, http.StatusOK)
			// Instants 10:00:00 … 10:00:40.
			q := srv2.Engine().Queries()[0]
			for deadline := time.Now().Add(5 * time.Second); q.Err() == nil && q.Stats().Evaluations < 5; {
				if time.Now().After(deadline) {
					t.Fatalf("drain stalled at %d evaluations", q.Stats().Evaluations)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := q.Err(); err != nil {
				t.Fatalf("query failed after restart: %v", err)
			}
		})
	}
}

// TestEventIndexedOnlyWhenAccepted: an event the engine rejects leaves
// no trace in the topology index, so a later event may reuse its
// relationship ids.
func TestEventIndexedOnlyWhenAccepted(t *testing.T) {
	ts := newTestServer(t)
	if resp, _ := post(t, ts.URL+"/queries", `REGISTER QUERY q STARTING AT NOW { MATCH (a) WITHIN PT1H EMIT a EVERY PT1M }`); resp.StatusCode != http.StatusCreated {
		t.Fatal("register failed")
	}
	lines := strings.Split(strings.TrimSpace(figure1NDJSON(t)), "\n")
	if resp, m := post(t, ts.URL+"/events", lines[2]+"\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-order event: %d %v", resp.StatusCode, m)
	}
	if resp, m := post(t, ts.URL+"/events", lines[0]+"\n"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order event: %d %v", resp.StatusCode, m)
	}
	first := onlyRel(t, lines[0])
	reuse := relEventNDJSON(t, first.ID, first.EndID, first.StartID, first.Type,
		time.Date(2022, 10, 14, 15, 16, 0, 0, time.UTC))
	if resp, m := post(t, ts.URL+"/events", reuse); resp.StatusCode != http.StatusOK {
		t.Fatalf("reuse of a rejected event's relationship id: %d %v", resp.StatusCode, m)
	}
}

// onlyRel decodes an event line and returns its one relationship.
func onlyRel(t *testing.T, line string) *value.Relationship {
	t.Helper()
	g, _, err := ingest.Decode([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	rels := g.Rels()
	if len(rels) != 1 {
		t.Fatalf("event has %d relationships, want 1", len(rels))
	}
	return rels[0]
}

// TestEventWindowInconsistency: two events giving one node different
// values for one property inside a window make the query's snapshot
// inconsistent (Def. 5.4). The client's data caused it: 409, not 500.
func TestEventWindowInconsistency(t *testing.T) {
	ts := newTestServer(t)
	reg := `REGISTER QUERY q STARTING AT 2026-07-06T10:00:00
{ MATCH (a:N) WITHIN PT1M EMIT a.k AS k SNAPSHOT EVERY PT10S }`
	if resp, m := post(t, ts.URL+"/queries", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, m)
	}
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	var body strings.Builder
	for _, ev := range []struct {
		id, k int64
		at    time.Duration
	}{{1, 1, time.Second}, {1, 2, 5 * time.Second}, {2, 3, 20 * time.Second}} {
		g := pg.New()
		g.AddNode(&value.Node{ID: ev.id, Labels: []string{"N"}, Props: map[string]value.Value{"k": value.NewInt(ev.k)}})
		data, err := ingest.Encode(g, base.Add(ev.at))
		if err != nil {
			t.Fatal(err)
		}
		body.Write(data)
		body.WriteByte('\n')
	}
	resp, m := post(t, ts.URL+"/events", body.String())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("inconsistent window: %d %v, want 409", resp.StatusCode, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "inconsistent") {
		t.Fatalf("error %q does not name the inconsistency", msg)
	}
	if m["ingested"] != float64(3) || m["total"] != float64(3) {
		t.Fatalf("ingested/total = %v/%v, want 3/3", m["ingested"], m["total"])
	}
}

// TestEventTopologyConcurrent: of concurrent events reusing one
// relationship id with different endpoints, exactly one is accepted.
func TestEventTopologyConcurrent(t *testing.T) {
	ts := newTestServer(t)
	if resp, _ := post(t, ts.URL+"/queries", `REGISTER QUERY q STARTING AT NOW { MATCH (a) WITHIN PT1M EMIT a EVERY PT1M }`); resp.StatusCode != http.StatusCreated {
		t.Fatal("register failed")
	}
	at := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	const clients = 8
	codes := make(chan int, clients)
	for i := int64(0); i < clients; i++ {
		body := relEventNDJSON(t, 7, 2*i, 2*i+1, "F", at)
		go func() {
			resp, err := http.Post(ts.URL+"/events", "text/plain", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	accepted := 0
	for i := 0; i < clients; i++ {
		switch code := <-codes; code {
		case http.StatusOK:
			accepted++
		case http.StatusConflict:
		default:
			t.Errorf("status %d, want 200 or 409", code)
		}
	}
	if accepted != 1 {
		t.Fatalf("%d of %d conflicting events accepted, want 1", accepted, clients)
	}
}
