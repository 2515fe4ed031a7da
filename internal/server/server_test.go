package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/value"
	"seraph/internal/workload"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func get(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// pairEventNDJSON encodes one graph event carrying two :P nodes joined
// by an :F relationship, for driving the shared-group queries over HTTP.
func pairEventNDJSON(t *testing.T, relID, v int64, at time.Time) string {
	t.Helper()
	g := pg.New()
	g.AddNode(&value.Node{ID: 1, Labels: []string{"P"}, Props: map[string]value.Value{"k": value.NewInt(1)}})
	g.AddNode(&value.Node{ID: 2, Labels: []string{"P"}, Props: map[string]value.Value{"k": value.NewInt(2)}})
	if err := g.AddRel(&value.Relationship{ID: relID, StartID: 1, EndID: 2, Type: "F",
		Props: map[string]value.Value{"v": value.NewInt(v)}}); err != nil {
		t.Fatal(err)
	}
	data, err := ingest.Encode(g, at)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

func figure1NDJSON(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	for _, el := range workload.Figure1Stream() {
		data, err := ingest.Encode(el.Graph, el.Time)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	var m map[string]any
	resp := get(t, ts.URL+"/healthz", &m)
	if resp.StatusCode != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("health: %d %v", resp.StatusCode, m)
	}
}

func TestFullPipelineOverHTTP(t *testing.T) {
	ts := newTestServer(t)

	// Register the running-example query.
	resp, m := post(t, ts.URL+"/queries", workload.StudentTrickQuery)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, m)
	}
	if m["name"] != "student_trick" {
		t.Fatalf("name: %v", m)
	}

	// Ingest the Figure 1 events.
	resp, m = post(t, ts.URL+"/events", figure1NDJSON(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %v", resp.StatusCode, m)
	}
	if m["ingested"].(float64) != 5 {
		t.Fatalf("ingested: %v", m)
	}

	// Fetch results: 12 evaluations, 2 with rows (Tables 5 and 6).
	var results []map[string]any
	get(t, ts.URL+"/queries/student_trick/results", &results)
	if len(results) != 12 {
		t.Fatalf("results = %d", len(results))
	}
	nonEmpty := 0
	var lastSeq float64
	for _, r := range results {
		rows := r["rows"].([]any)
		if len(rows) > 0 {
			nonEmpty++
		}
		lastSeq = r["seq"].(float64)
	}
	if nonEmpty != 2 {
		t.Errorf("non-empty results = %d, want 2", nonEmpty)
	}

	// Incremental polling with since=.
	var newer []map[string]any
	get(t, fmt.Sprintf("%s/queries/student_trick/results?since=%d", ts.URL, int(lastSeq)), &newer)
	if len(newer) != 0 {
		t.Errorf("nothing newer expected, got %d", len(newer))
	}

	// Stats endpoint.
	var stat map[string]any
	get(t, ts.URL+"/queries/student_trick", &stat)
	if stat["name"] != "student_trick" {
		t.Errorf("stats: %v", stat)
	}

	// List queries.
	var list []map[string]any
	get(t, ts.URL+"/queries", &list)
	if len(list) != 1 {
		t.Errorf("list: %v", list)
	}

	// Deregister.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/student_trick", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp3.StatusCode)
	}
	if resp := get(t, ts.URL+"/queries/student_trick", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("after delete: %d", resp.StatusCode)
	}
}

func TestRegisterErrors(t *testing.T) {
	ts := newTestServer(t)
	resp, m := post(t, ts.URL+"/queries", "THIS IS NOT SERAPH")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad query: %d %v", resp.StatusCode, m)
	}
	if _, ok := m["error"]; !ok {
		t.Error("error body expected")
	}
	// Unknown query results.
	if resp := get(t, ts.URL+"/queries/nosuch/results", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown results: %d", resp.StatusCode)
	}
}

func TestEventErrors(t *testing.T) {
	ts := newTestServer(t)
	resp, m := post(t, ts.URL+"/events", "garbage\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad event: %d %v", resp.StatusCode, m)
	}
	// Out-of-order events are rejected once a query is registered.
	if resp, _ := post(t, ts.URL+"/queries", `REGISTER QUERY q STARTING AT NOW { MATCH (a) WITHIN PT1M EMIT a EVERY PT1M }`); resp.StatusCode != http.StatusCreated {
		t.Fatal("register failed")
	}
	lines := strings.Split(strings.TrimSpace(figure1NDJSON(t)), "\n")
	if resp, _ := post(t, ts.URL+"/events", lines[2]+"\n"); resp.StatusCode != http.StatusOK {
		t.Fatal("first event failed")
	}
	resp, m = post(t, ts.URL+"/events", lines[0]+"\n")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("out-of-order event: %d %v", resp.StatusCode, m)
	}
}

// TestCheckpointEndpointAndRestore: a server restored from the
// /checkpoint download continues evaluating its queries.
func TestCheckpointEndpointAndRestore(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, m := post(t, ts.URL+"/queries", workload.StudentTrickQuery); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v", m)
	}
	lines := strings.Split(strings.TrimSpace(figure1NDJSON(t)), "\n")
	// Feed the first three events (through Table 5).
	post(t, ts.URL+"/events", strings.Join(lines[:3], "\n")+"\n")

	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	// Continue with the remaining events on the restored server.
	post(t, ts2.URL+"/events", strings.Join(lines[3:], "\n")+"\n")
	var results []map[string]any
	get(t, ts2.URL+"/queries/student_trick/results", &results)
	// Post-restore evaluations: 15:20 through 15:40 (5 instants); the
	// last one carries the Table 6 row for user 5678 only.
	nonEmpty := 0
	for _, r := range results {
		if rows := r["rows"].([]any); len(rows) > 0 {
			nonEmpty++
			row := rows[0].(map[string]any)
			if row["r.user_id"].(float64) != 5678 {
				t.Errorf("post-restore match: %v", row)
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("post-restore non-empty results = %d, want 1", nonEmpty)
	}
}

// TestSharedGroupsEndpoint: with -mqo (WithSharedEval), two queries
// differing only in a residual predicate surface as one shared group
// on GET /groups, and each query's /queries entries carry the group id
// and size. Without shared evaluation, /groups answers an empty list.
func TestSharedGroupsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(engine.WithSharedEval(true)).Handler())
	t.Cleanup(ts.Close)
	body := func(name string, v int) string {
		return fmt.Sprintf(`REGISTER QUERY %s STARTING AT 2026-07-06T10:00:00
{
  MATCH (a:P)-[r:F]->(b:P)
  WITHIN PT20S
  WHERE r.v > %d
  EMIT a.k AS k
  SNAPSHOT EVERY PT5S
}`, name, v)
	}
	for i, name := range []string{"g1", "g2"} {
		if resp, _ := post(t, ts.URL+"/queries", body(name, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: %d", name, resp.StatusCode)
		}
	}

	var groups []engine.GroupInfo
	get(t, ts.URL+"/groups", &groups)
	if len(groups) != 1 || len(groups[0].Members) != 2 {
		t.Fatalf("groups = %+v, want one group of two", groups)
	}

	var queries []struct {
		Name      string `json:"name"`
		Group     string `json:"group"`
		GroupSize int    `json:"group_size"`
	}
	get(t, ts.URL+"/queries", &queries)
	if len(queries) != 2 {
		t.Fatalf("queries = %+v", queries)
	}
	for _, q := range queries {
		if q.Group != groups[0].ID || q.GroupSize != 2 {
			t.Fatalf("query %s group %q/%d, want %q/2", q.Name, q.Group, q.GroupSize, groups[0].ID)
		}
	}

	// Hierarchy metadata: one generation of the key, and per-member
	// watermarks (width + next evaluation instant) for both members.
	g0 := groups[0]
	if g0.Generation != 1 || g0.Generations != 1 || g0.MergedLateJoins != 0 {
		t.Fatalf("generations = %d/%d merged=%d, want 1/1 merged=0",
			g0.Generation, g0.Generations, g0.MergedLateJoins)
	}
	if len(g0.MemberInfo) != 2 {
		t.Fatalf("member_info = %+v, want two entries", g0.MemberInfo)
	}
	for _, m := range g0.MemberInfo {
		if m.Width != "20s" || m.NextEval.IsZero() || m.LateJoined {
			t.Fatalf("member watermark %+v, want width 20s, non-zero next_eval, not late", m)
		}
	}

	// Drive four instants past the start, then register a third query
	// late: it merges into the running generation (one catch-up
	// evaluation), and /groups reports the merge and the caught-up
	// watermark.
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	var b strings.Builder
	for i, sec := range []int{1, 6, 11, 16} {
		b.WriteString(pairEventNDJSON(t, int64(100+i), int64(i), base.Add(time.Duration(sec)*time.Second)))
	}
	post(t, ts.URL+"/events", b.String())
	if resp, m := post(t, ts.URL+"/queries", body("g3", 2)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("late register g3: %d %v", resp.StatusCode, m)
	}
	get(t, ts.URL+"/groups", &groups)
	if len(groups) != 1 || len(groups[0].Members) != 3 {
		t.Fatalf("groups after late join = %+v, want one group of three", groups)
	}
	g0 = groups[0]
	if g0.Generations != 1 || g0.MergedLateJoins != 1 {
		t.Fatalf("after late join: generations=%d merged=%d, want 1/1", g0.Generations, g0.MergedLateJoins)
	}
	var late *engine.GroupMember
	for i := range g0.MemberInfo {
		if g0.MemberInfo[i].Name == "g3" {
			late = &g0.MemberInfo[i]
		}
	}
	if late == nil || !late.LateJoined {
		t.Fatalf("late member not flagged: %+v", g0.MemberInfo)
	}
	for _, m := range g0.MemberInfo {
		if m.NextEval.IsZero() || !m.NextEval.Equal(late.NextEval) {
			t.Fatalf("member watermarks diverge after catch-up: %+v", g0.MemberInfo)
		}
	}

	// Unshared server: endpoint present, empty list.
	plain := newTestServer(t)
	var none []engine.GroupInfo
	get(t, plain.URL+"/groups", &none)
	if len(none) != 0 {
		t.Fatalf("unshared /groups = %+v, want empty", none)
	}
}
