package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"seraph/internal/ast"
	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// The reference encoder: each row as a map[string]any handed to
// encoding/json. appendResult and writeResults must emit the same bytes
// for every finite value.

type refResult struct {
	Seq      int64            `json:"seq"`
	At       time.Time        `json:"at"`
	WinStart time.Time        `json:"win_start"`
	WinEnd   time.Time        `json:"win_end"`
	Op       string           `json:"op"`
	Columns  []string         `json:"columns"`
	Rows     []map[string]any `json:"rows"`
	Skipped  bool             `json:"skipped,omitempty"`
}

func refStore(seq int64, res engine.Result) refResult {
	table := res.Table
	if table == nil {
		table = &eval.Table{}
	}
	return refResult{
		Seq:      seq,
		At:       res.At,
		WinStart: res.Window.Start,
		WinEnd:   res.Window.End,
		Op:       res.Op.String(),
		Columns:  table.Cols,
		Rows:     tableRows(table),
		Skipped:  res.Skipped,
	}
}

func tableRows(t *eval.Table) []map[string]any {
	rows := make([]map[string]any, 0, t.Len())
	for i := range t.Rows {
		m := make(map[string]any, len(t.Cols))
		for j, c := range t.Cols {
			m[c] = jsonValue(t.Rows[i][j])
		}
		rows = append(rows, m)
	}
	return rows
}

func jsonValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.Bool()
	case value.KindNumber:
		if v.IsInt() {
			return v.Int()
		}
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindDateTime:
		return v.DateTime().Format(time.RFC3339Nano)
	case value.KindDuration:
		return value.FormatDuration(v.Duration())
	case value.KindList:
		out := make([]any, len(v.List()))
		for i, e := range v.List() {
			out[i] = jsonValue(e)
		}
		return out
	case value.KindMap:
		out := make(map[string]any, len(v.Map()))
		for k, e := range v.Map() {
			out[k] = jsonValue(e)
		}
		return out
	case value.KindNode:
		n := v.Node()
		props := make(map[string]any, len(n.Props))
		for k, p := range n.Props {
			props[k] = jsonValue(p)
		}
		return map[string]any{"id": n.ID, "labels": n.Labels, "props": props}
	case value.KindRelationship:
		r := v.Relationship()
		props := make(map[string]any, len(r.Props))
		for k, p := range r.Props {
			props[k] = jsonValue(p)
		}
		return map[string]any{"id": r.ID, "start": r.StartID, "end": r.EndID, "type": r.Type, "props": props}
	case value.KindPath:
		p := v.Path()
		nodes := make([]any, len(p.Nodes))
		for i, n := range p.Nodes {
			nodes[i] = jsonValue(value.NewNode(n))
		}
		rels := make([]any, len(p.Rels))
		for i, r := range p.Rels {
			rels[i] = jsonValue(value.NewRelationship(r))
		}
		return map[string]any{"nodes": nodes, "rels": rels}
	}
	return nil
}

// wireValues covers every value.Kind with the inputs where a hand-written
// encoder most easily departs from encoding/json.
func wireValues() []value.Value {
	at := time.Date(2022, 10, 14, 15, 40, 7, 120_000_000, time.UTC)
	n1 := &value.Node{ID: 1, Labels: []string{"Bike", "E<bike>"}, Props: map[string]value.Value{
		"id": value.NewInt(7), "z": value.NewFloat(0.5), "a&b": value.NewString("x"),
	}}
	n2 := &value.Node{ID: -2} // nil labels and props
	n3 := &value.Node{ID: 3, Labels: []string{}, Props: map[string]value.Value{}}
	r1 := &value.Relationship{ID: 10, StartID: 1, EndID: -2, Type: "rentedAt", Props: map[string]value.Value{
		"user_id": value.NewInt(1234), "val_time": value.NewDateTime(at),
	}}
	r2 := &value.Relationship{ID: 11, StartID: -2, EndID: 3, Type: `"quoted"`}
	vals := []value.Value{
		value.Null, value.True, value.False,
		value.NewInt(0), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewString(""), value.NewString("plain"),
		value.NewString(`<a href="x">&amp;</a>`),
		value.NewString("line\u2028sep\u2029end"),
		value.NewString("bad \xff\xfe utf8 \xc3"),
		value.NewString("ctl \x00\x01\b\f\n\r\t\x1f\x7f"),
		value.NewString(`quote " back \ slash`),
		value.NewString("\u00fc\u00f1\u20ac\U0001d11e"),
		value.NewDateTime(at), value.NewDateTime(time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)),
		value.NewDateTime(time.Date(2022, 1, 2, 3, 4, 5, 1, time.UTC)),
		value.NewDuration(0), value.NewDuration(90*time.Minute + 3*time.Second + 5*time.Millisecond),
		value.NewDuration(-time.Hour),
		value.NewList(), value.NewList(value.NewInt(1), value.NewList(value.NewString("<"), value.Null), value.NewList()),
		value.NewMap(nil), value.NewMap(map[string]value.Value{
			"b": value.NewList(value.NewFloat(2.5)), "a": value.NewMap(map[string]value.Value{"y": value.True, "x": value.Null}),
			"": value.NewInt(1), " ": value.NewString("k"),
		}),
		value.NewNode(n1), value.NewNode(n2), value.NewNode(n3),
		value.NewRelationship(r1), value.NewRelationship(r2),
		value.NewPath(&value.Path{Nodes: []*value.Node{n1, n2, n3}, Rels: []*value.Relationship{r1, r2}}),
		value.NewPath(&value.Path{Nodes: []*value.Node{n3}}),
	}
	// Floats on both sides of encoding/json's exponent cut-offs.
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 123.456, 1.0 / 3,
		1e-7, -1e-7, 1e-6, 9.99999e-7, 1.000001e-6, 1.23e-9, 5e-324,
		1e20, 9.99999e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, float64(1 << 53),
	} {
		vals = append(vals, value.NewFloat(f))
	}
	return vals
}

// wireResults builds results over wireValues: one wide row per value
// group, columns unsorted and one name repeated, plus shed results with
// and without a table and a table with columns but no rows.
func wireResults() []engine.Result {
	vals := wireValues()
	var cols []string
	var row []value.Value
	for i, v := range vals {
		cols = append(cols, fmt.Sprintf("c%02d", len(vals)-i))
		row = append(row, v)
	}
	cols = append(cols, "c01") // duplicate name: the later column wins
	row = append(row, value.NewString("dup"))
	col1 := make([][]value.Value, len(vals))
	for i, v := range vals {
		col1[i] = []value.Value{v, value.NewInt(int64(i))}
	}
	at := time.Date(2022, 10, 14, 15, 0, 0, 0, time.UTC)
	win := stream.Interval{Start: at.Add(-time.Hour), End: at}
	return []engine.Result{
		{At: at, Window: win, Op: ast.OpSnapshot, Table: &eval.Table{Cols: cols, Rows: [][]value.Value{row, row}}},
		{At: at, Window: win, Op: ast.OpOnEntering, Table: &eval.Table{Cols: []string{"v", "i"}, Rows: col1}},
		{At: at, Window: win, Op: ast.OpOnExiting, Skipped: true},
		{At: at, Window: win, Op: ast.OpSnapshot, Skipped: true, Table: &eval.Table{}},
		{At: at, Window: win, Op: ast.OpSnapshot, Table: &eval.Table{Cols: []string{"x"}}},
		{At: at, Window: win, Op: ast.OpSnapshot, Table: &eval.Table{Rows: [][]value.Value{{}}}},
	}
}

// TestResultsWireFormat: the encode-once ring serves byte for byte what
// the map-based encoder served, for every value kind and every kind of
// since (below lowest_seq, inside, equal to latest_seq and above it).
func TestResultsWireFormat(t *testing.T) {
	results := wireResults()
	ring := &resultRing{}
	var ref []refResult
	const total = resultBufferSize + 2*6 + 3
	for i := 0; i < total; i++ {
		res := results[i%len(results)]
		ring.add(res)
		ref = append(ref, refStore(int64(i+1), res))
	}
	ref = ref[len(ref)-resultBufferSize:]
	lowest := ref[0].Seq
	if info := ring.info(); info.LowestSeq != lowest || info.LatestSeq != total {
		t.Fatalf("ring info %+v, want lowest %d latest %d", info, lowest, total)
	}
	for _, since := range []int64{math.MinInt64, -1, 0, 3, lowest - 1, lowest, lowest + 1,
		total - 7, total - 1, total, total + 1, math.MaxInt64} {
		got := httptest.NewRecorder()
		writeResults(got, ring.after(since))
		want := httptest.NewRecorder()
		var refAfter []refResult
		for _, r := range ref {
			if r.Seq > since {
				refAfter = append(refAfter, r)
			}
		}
		if refAfter == nil {
			refAfter = []refResult{}
		}
		writeJSON(want, http.StatusOK, refAfter)
		if want.Body.Len() == 0 {
			t.Fatal("reference encoder failed")
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("since=%d: body differs at byte %d\n got: %.300s\nwant: %.300s", since,
				firstDiff(got.Body.Bytes(), want.Body.Bytes()), got.Body.Bytes(), want.Body.Bytes())
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("since=%d: Content-Type %q", since, ct)
		}
		if cl := got.Header().Get("Content-Length"); cl != fmt.Sprint(got.Body.Len()) {
			t.Errorf("since=%d: Content-Length %s for %d bytes", since, cl, got.Body.Len())
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestResultsNonFiniteFloat: a query emitting ±Inf or NaN still gets a
// valid JSON body from GET …/results, the values as strings.
func TestResultsNonFiniteFloat(t *testing.T) {
	ts := newTestServer(t)
	reg := `REGISTER QUERY q STARTING AT NOW { MATCH (a) WITHIN PT1M EMIT 1.0 / 0.0 AS p, -1.0 / 0.0 AS m, 0.0 / 0.0 AS n EVERY PT1M }`
	if resp, m := post(t, ts.URL+"/queries", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, m)
	}
	if resp, m := post(t, ts.URL+"/events", figure1NDJSON(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %v", resp.StatusCode, m)
	}
	var results []struct {
		Rows []map[string]any `json:"rows"`
	}
	get(t, ts.URL+"/queries/q/results", &results)
	want := map[string]any{"p": "Infinity", "m": "-Infinity", "n": "NaN"}
	rows := 0
	for _, r := range results {
		for _, row := range r.Rows {
			rows++
			for k, v := range want {
				if row[k] != v {
					t.Fatalf("%s = %#v, want %q (row %v)", k, row[k], v, row)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatalf("no rows in %d results", len(results))
	}
}

// ringResult is a small fixed result for the ring cost tests. Its body
// is about 400 bytes at both seq 10 and seq 5000, one allocator size
// class, so the two extra seq digits do not change bytes allocated.
func ringResult() engine.Result {
	at := time.Date(2022, 10, 14, 15, 0, 0, 0, time.UTC)
	rows := make([][]value.Value, 5)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString("station"), value.NewDateTime(at)}
	}
	return engine.Result{At: at, Window: stream.Interval{Start: at.Add(-time.Hour), End: at},
		Table: &eval.Table{Cols: []string{"n", "s", "t"}, Rows: rows}}
}

// ringAddCost returns allocations and bytes allocated by one add into a
// ring that already holds `before` results.
func ringAddCost(before int) (allocs float64, bytes uint64) {
	res := ringResult()
	r := &resultRing{}
	for i := 0; i < before-1; i++ {
		r.add(res)
	}
	// AllocsPerRun warms up with one add, then measures the next.
	allocs = testing.AllocsPerRun(1, func() { r.add(res) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.add(res)
	runtime.ReadMemStats(&m1)
	return allocs, m1.TotalAlloc - m0.TotalAlloc
}

// TestRingAddAllocs: adding a result costs the same at result 10 and at
// result 5 000 — the full ring overwrites a slot instead of copying
// itself.
func TestRingAddAllocs(t *testing.T) {
	a10, b10 := ringAddCost(10)
	a5k, b5k := ringAddCost(5000)
	if a10 != a5k || b10 != b5k {
		t.Fatalf("add at result 10: %.0f allocs %d B; at result 5000: %.0f allocs %d B", a10, b10, a5k, b5k)
	}
	t.Logf("add: %.0f allocs, %d B", a10, b10)
}

func BenchmarkRingAdd(b *testing.B) {
	for _, before := range []int{10, 5000} {
		b.Run(fmt.Sprintf("at=%d", before), func(b *testing.B) {
			res := ringResult()
			r := &resultRing{}
			for i := 0; i < before; i++ {
				r.add(res)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.add(res)
			}
		})
	}
}

// TestEventsRequestAllocs: a one-line POST /events allocates in
// proportion to its line, not a fixed 1 MiB scanner buffer; a 30 KB
// line costs less than decoding it plus one copy of it; and a 2 MiB
// line is still accepted.
func TestEventsRequestAllocs(t *testing.T) {
	srv := New()
	h := srv.Handler()
	base := time.Date(2022, 10, 14, 15, 0, 0, 0, time.UTC)
	postEvent := func(line string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/events", strings.NewReader(line+"\n")))
		return rec.Code
	}
	const n = 50
	lines := make([]string, n)
	for i := range lines {
		lines[i] = eventJSON(t, int64(i+1), base.Add(time.Duration(i)*time.Second))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, line := range lines {
		if code := postEvent(line); code != http.StatusOK {
			t.Fatalf("POST /events: %d", code)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per >= 64<<10 {
		t.Errorf("one-line POST allocates %d B, want < 64 KiB", per)
	}

	big := wideEventJSON(t, base)
	if len(big) < 30_000 {
		t.Fatalf("wide event is %d B, want ≥ 30 KB", len(big))
	}
	// TotalAlloc is process-wide, so one call can be charged for another
	// goroutine's allocations (the race detector's, say); the minimum over
	// several calls is the call's own figure.
	minAlloc := func(f func()) uint64 {
		f() // warm-up: pooled buffers, interned symbols
		least := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&m0)
			f()
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	decode := minAlloc(func() {
		if _, _, err := ingest.Decode([]byte(big)); err != nil {
			t.Fatal(err)
		}
	})
	posted := minAlloc(func() {
		if code := postEvent(big); code != http.StatusOK {
			t.Fatalf("POST /events: %d", code)
		}
	})
	if limit := decode + uint64(len(big)); posted >= limit {
		t.Errorf("one-line POST of a %d B event allocates %d B, want < %d (decode %d B + the line)",
			len(big), posted, limit, decode)
	}
	t.Logf("%d B event: decode %d B, POST %d B", len(big), decode, posted)

	g := pg.New()
	g.AddNode(&value.Node{ID: n + 1, Labels: []string{"N"},
		Props: map[string]value.Value{"blob": value.NewString(strings.Repeat("x", 2<<20))}})
	data, err := ingest.Encode(g, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if code := postEvent(string(data)); code != http.StatusOK {
		t.Fatalf("2 MiB event line: %d", code)
	}
}

// wideEventJSON encodes a 30 KB event shaped like the benchmark's churn
// events: a hundred relationships with properties between forty nodes.
func wideEventJSON(t *testing.T, at time.Time) string {
	t.Helper()
	g := pg.New()
	for i := int64(0); i < 40; i++ {
		g.AddNode(&value.Node{ID: i, Labels: []string{"Station"},
			Props: map[string]value.Value{"id": value.NewInt(i), "name": value.NewString(fmt.Sprint("station-", i))}})
	}
	for i := int64(0); i < 100; i++ {
		if err := g.AddRel(&value.Relationship{ID: 1000 + i, StartID: i % 40, EndID: (i*7 + 1) % 40, Type: "rentedAt",
			Props: map[string]value.Value{
				"user_id":  value.NewInt(10_000 + i),
				"val_time": value.NewDateTime(at.Add(-time.Duration(i) * time.Second)),
				"note":     value.NewString(strings.Repeat("x", 160)),
			}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ingest.Encode(g, at)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRingConcurrentPoll: pollers reading while the sink adds (and the
// ring wraps) always see a contiguous run of seqs ending at or before
// latest_seq.
func TestRingConcurrentPoll(t *testing.T) {
	r := &resultRing{}
	res := ringResult()
	done := make(chan struct{})
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		go func() {
			var since int64
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				bodies := r.after(since)
				latest := r.info().LatestSeq
				for i, b := range bodies {
					var head struct {
						Seq int64 `json:"seq"`
					}
					if err := json.Unmarshal(b, &head); err != nil {
						errs <- err
						return
					}
					if (i > 0 && head.Seq != since+1) || head.Seq <= since || head.Seq > latest {
						errs <- fmt.Errorf("seq %d after %d (latest %d)", head.Seq, since, latest)
						return
					}
					since = head.Seq
				}
			}
		}()
	}
	for i := 0; i < 3*resultBufferSize; i++ {
		r.add(res)
	}
	close(done)
	for p := 0; p < 4; p++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
