package server

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/queue"
	"seraph/internal/value"
)

func eventJSON(t *testing.T, id int64, ts time.Time) string {
	t.Helper()
	g := pg.New()
	g.AddNode(&value.Node{ID: id, Labels: []string{"N"}, Props: map[string]value.Value{}})
	data, err := ingest.Encode(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEventsStalledSinkReturns429 is the acceptance scenario: a sink
// that stalls mid-evaluation must not let the engine's backlog grow
// without bound — once the admission bound is hit, POST /events
// returns 429 with the configured Retry-After, and the backlog gauge
// stays at the bound.
func TestEventsStalledSinkReturns429(t *testing.T) {
	const maxInFlight = 5
	srv := New(engine.WithMaxInFlight(maxInFlight))
	srv.SetRetryAfter(2 * time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	_, err := srv.Engine().RegisterSource(`
REGISTER QUERY stall STARTING AT 2026-07-06T10:00:00
{ MATCH (n:N) WITHIN PT10S
  EMIT n.name AS name SNAPSHOT EVERY PT1S }`, func(engine.Result) {
		if !once {
			once = true
			close(entered)
			<-release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	// The first event triggers an evaluation whose sink stalls; the
	// request hangs inside AdvanceTo, so run it in the background.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		post(t, ts.URL+"/events", eventJSON(t, 1, base))
	}()
	<-entered

	// Push more events. Each advances the virtual clock by one slide,
	// growing the due-but-unexecuted backlog while the chain is stuck
	// in the stalled sink; within maxInFlight+1 requests one must be
	// rejected.
	got429 := false
	for i := 1; i <= maxInFlight+2 && !got429; i++ {
		resp, body := post(t, ts.URL+"/events", eventJSON(t, int64(i+1), base.Add(time.Duration(i)*time.Second)))
		switch resp.StatusCode {
		case 200:
		case 429:
			got429 = true
			if ra := resp.Header.Get("Retry-After"); ra != "2" {
				t.Errorf("Retry-After = %q, want \"2\"", ra)
			}
			if body["error"] == nil {
				t.Error("429 body missing error")
			}
		default:
			t.Fatalf("unexpected status %d: %v", resp.StatusCode, body)
		}
	}
	if !got429 {
		t.Fatal("never saw 429 despite stalled sink and admission bound")
	}
	// In-flight work stays bounded: the backlog can never exceed the
	// admission bound plus the one instant the stuck worker owns.
	if bl := srv.Engine().EvalBacklog(); bl > maxInFlight+1 {
		t.Errorf("eval backlog = %d, want <= %d", bl, maxInFlight+1)
	}
	release <- struct{}{} // unblock the stalled evaluation
	<-firstDone
}

// TestEventsQueueModeBackpressure: with the bounded ingest queue in
// reject mode, a stalled engine fills the queue and POST /events turns
// into 429 + Retry-After; once the engine drains, queued events are
// applied in order and poison events land on the DLQ.
func TestEventsQueueModeBackpressure(t *testing.T) {
	srv := New()
	if err := srv.EnableIngestQueue(4, queue.PolicyReject); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.EnableIngestQueue(4, queue.PolicyReject); err == nil {
		t.Fatal("double enable must fail")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	if _, err := srv.Engine().RegisterSource(`
REGISTER QUERY stall STARTING AT 2026-07-06T10:00:00
{ MATCH (n:N) WITHIN PT10S
  EMIT n.name AS name SNAPSHOT EVERY PT1S }`, func(engine.Result) {
		if !once {
			once = true
			close(entered)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}

	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	// First event: accepted (202-equivalent: enqueued), the connector
	// picks it up, evaluates, and stalls in the sink.
	if resp, body := post(t, ts.URL+"/events", eventJSON(t, 1, base)); resp.StatusCode != 200 {
		t.Fatalf("enqueue: %d %v", resp.StatusCode, body)
	}
	<-entered

	// The connector goroutine is stuck in AdvanceTo. Fill the bounded
	// topic to capacity, then one more must be rejected with 429.
	accepted := 0
	got429 := false
	for i := 1; i <= 8 && !got429; i++ {
		resp, _ := post(t, ts.URL+"/events", eventJSON(t, int64(i+1), base.Add(time.Duration(i)*time.Second)))
		switch resp.StatusCode {
		case 200:
			accepted++
		case 429:
			got429 = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("Retry-After = %q, want \"1\"", ra)
			}
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("bounded queue never rejected")
	}
	if accepted > 4 {
		t.Errorf("accepted %d events into a capacity-4 queue", accepted)
	}
	st, _, ok := srv.IngestQueueStats()
	if !ok || st.Rejected == 0 {
		t.Errorf("queue stats = %+v ok=%v, want rejected > 0", st, ok)
	}

	close(release) // engine drains
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := srv.Engine().Queries()[0].Stats().ElementsSeen; n == accepted+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued events not applied: saw %d, want %d",
				srv.Engine().Queries()[0].Stats().ElementsSeen, accepted+1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A poison event — timestamp behind the stream — is quarantined to
	// the DLQ, not fatal.
	if resp, _ := post(t, ts.URL+"/events", eventJSON(t, 99, base.Add(-time.Hour))); resp.StatusCode != 200 {
		t.Fatalf("poison enqueue rejected synchronously")
	}
	for {
		if _, dl, _ := srv.IngestQueueStats(); dl == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poison event never quarantined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close drains and stops the connector; a second Close is a no-op.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResultRingHandlesSkipped: shed results (possibly with nil
// tables) are stored, marked, and never panic the ring.
func TestResultRingHandlesSkipped(t *testing.T) {
	r := &resultRing{}
	r.add(engine.Result{Query: "q", At: time.Unix(1, 0), Skipped: true, Table: nil})
	r.add(engine.Result{Query: "q", At: time.Unix(2, 0), Table: &eval.Table{Cols: []string{"x"}}})
	bodies := r.after(0)
	if len(bodies) != 2 {
		t.Fatalf("stored %d results", len(bodies))
	}
	items := make([]struct {
		Rows    []map[string]any `json:"rows"`
		Skipped bool             `json:"skipped"`
	}, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &items[i]); err != nil {
			t.Fatalf("result %d: %v in %s", i, err, b)
		}
	}
	if !items[0].Skipped || items[0].Rows == nil || len(items[0].Rows) != 0 {
		t.Errorf("skipped result stored as %s", bodies[0])
	}
	if items[1].Skipped {
		t.Error("real result marked skipped")
	}
}
