package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"seraph/internal/ast"
	"seraph/internal/parser"
	"seraph/internal/value"
	"seraph/internal/workload"
)

// TestCheckpointRestoreMidStream: running the paper's Figure 1 stream
// with a checkpoint/restore in the middle produces exactly the same
// emissions as an uninterrupted run — including the ON ENTERING diffs
// that span the restart.
func TestCheckpointRestoreMidStream(t *testing.T) {
	elems := workload.Figure1Stream()

	// Reference: uninterrupted run.
	ref := &Collector{}
	e := New()
	if _, err := e.RegisterSource(workload.StudentTrickQuery, ref.Sink()); err != nil {
		t.Fatal(err)
	}
	for _, el := range elems {
		if err := e.Push(el.Graph, el.Time); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTo(el.Time); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted run: process the first three events (through the
	// 15:15 emission of Table 5), checkpoint, restore, continue.
	part1 := &Collector{}
	e1 := New()
	if _, err := e1.RegisterSource(workload.StudentTrickQuery, part1.Sink()); err != nil {
		t.Fatal(err)
	}
	for _, el := range elems[:3] {
		if err := e1.Push(el.Graph, el.Time); err != nil {
			t.Fatal(err)
		}
		if err := e1.AdvanceTo(el.Time); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e1.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	part2 := &Collector{}
	e2, err := Restore(&buf, func(name string) Sink {
		if name != "student_trick" {
			t.Errorf("unexpected query name %q", name)
		}
		return part2.Sink()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range elems[3:] {
		if err := e2.Push(el.Graph, el.Time); err != nil {
			t.Fatal(err)
		}
		if err := e2.AdvanceTo(el.Time); err != nil {
			t.Fatal(err)
		}
	}

	combined := append(append([]Result(nil), part1.Results...), part2.Results...)
	if len(combined) != len(ref.Results) {
		t.Fatalf("evaluations: %d interrupted vs %d reference", len(combined), len(ref.Results))
	}
	for i := range ref.Results {
		a, b := ref.Results[i], combined[i]
		if !a.At.Equal(b.At) {
			t.Fatalf("instant %d: %s vs %s", i, a.At, b.At)
		}
		if !sameBag(a.Table, b.Table) {
			t.Errorf("tables differ at %s:\nref:\n%s\nrestored:\n%s",
				a.At.Format("15:04"), a.Table, b.Table)
		}
	}
	// The Table 6 emission (user 5678, nothing else) happened after the
	// restore — proving the ON ENTERING diff survived it.
	last := part2.Results[len(part2.Results)-1]
	if last.Table.Len() != 1 || last.Table.Get(0, "r.user_id").Int() != 5678 {
		t.Errorf("post-restore Table 6 emission:\n%s", last.Table)
	}
}

// TestCheckpointPreservesConfiguration: options, stream bindings and
// stats round-trip.
func TestCheckpointPreservesConfiguration(t *testing.T) {
	e := New(WithSnapshotCache(true))
	if _, err := e.RegisterSourceOn("plant-a", `
REGISTER QUERY q STARTING AT 2026-07-06T10:00:00
{
  MATCH (s:Sensor) WITHIN PT30S
  EMIT count(*) AS n
  SNAPSHOT EVERY PT10S
}`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.PushStream("plant-a", sensorGraph(1, "s1", 1), tick(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.AdvanceTo(tick(20)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var head struct {
		Cache bool `json:"cache"`
	}
	if err := json.Unmarshal(buf.Bytes(), &head); err != nil || !head.Cache {
		t.Errorf("cache flag missing from checkpoint (err %v)", err)
	}
	e2, err := Restore(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := e2.Queries()
	if len(qs) != 1 || qs[0].Stream() != "plant-a" {
		t.Fatalf("restored queries: %+v", qs)
	}
	if qs[0].Stats().Evaluations != 3 {
		t.Errorf("restored stats: %+v", qs[0].Stats())
	}
	// The restored engine keeps evaluating on schedule.
	col := &Collector{}
	// Rebind by re-registering is not allowed; instead restore again
	// with a sink.
	e3, err := Restore(bytes.NewReader(buf.Bytes()), func(string) Sink { return col.Sink() })
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.AdvanceTo(tick(40)); err != nil {
		t.Fatal(err)
	}
	if len(col.Results) != 2 { // t=30, t=40
		t.Errorf("post-restore evaluations = %d", len(col.Results))
	}
}

// TestCheckpointRejectsParams: parameterized queries cannot checkpoint.
func TestCheckpointRejectsParams(t *testing.T) {
	e := New()
	reg := mustParseReg(t, `
REGISTER QUERY p STARTING AT 2026-07-06T10:00:00
{ MATCH (a) WITHIN PT10S WHERE a.v = $x EMIT a EVERY PT5S }`)
	if _, err := e.RegisterWithParams(reg, nil, map[string]value.Value{"x": value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err == nil {
		t.Error("checkpoint with params must fail")
	}
}

// TestRestoreErrors: malformed checkpoints are rejected.
func TestRestoreErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99}`,
		`{"version": 2, "streams": [{"name": ""}], "queries": [{"source": "NOT SERAPH"}]}`,
	}
	for _, c := range cases {
		if _, err := Restore(strings.NewReader(c), nil); err == nil {
			t.Errorf("Restore(%q) should fail", c)
		}
	}

	// Edits of a valid checkpoint: one query buffering two elements.
	e := New()
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.Push(sensorGraph(int64(1000+i), "s1", 41), tick(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(cp, q map[string]any)
	}{
		{"buffered-out-of-range", "buffered 3", func(_, q map[string]any) { q["buffered"] = 3 }},
		{"buffered-negative", "buffered -1", func(_, q map[string]any) { q["buffered"] = -1 }},
		{"unknown-stream", `stream "nowhere"`, func(_, q map[string]any) { q["stream"] = "nowhere" }},
		{"version-1", "version 1", func(cp, _ map[string]any) { cp["version"] = 1 }},
	} {
		var cp map[string]any
		if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
			t.Fatal(err)
		}
		tc.edit(cp, cp["queries"].([]any)[0].(map[string]any))
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Restore(bytes.NewReader(data), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore error = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointSharedWindowOnce: queries sharing a stream share one
// copy of its window, in the checkpoint and after Restore.
func TestCheckpointSharedWindowOnce(t *testing.T) {
	const elems = 50
	build := func(queries int) (*Engine, []byte) {
		e := New()
		for i := 0; i < queries; i++ {
			src := strings.Replace(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), "hot", fmt.Sprintf("hot%d", i), 1)
			if _, err := e.RegisterSource(src, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < elems; i++ {
			if err := e.Push(sensorGraph(int64(1000+i), "s1", int64(41+i%10)), tick(0).Add(time.Duration(i)*50*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AdvanceTo(tick(5)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return e, buf.Bytes()
	}
	_, one := build(1)
	e9, nine := build(9)
	if n := len(e9.Window("")); n != elems {
		t.Fatalf("window holds %d elements, want %d", n, elems)
	}
	extra := len(nine) - len(one)
	if extra >= 8*1024 {
		t.Errorf("8 more queries add %d B to a %d B checkpoint, want < %d B of per-query metadata", extra, len(one), 8*1024)
	}
	t.Logf("checkpoint: %d B with 1 query, %d B with 9", len(one), len(nine))
	r, err := Restore(bytes.NewReader(nine), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Window("")
	if len(want) != elems {
		t.Fatalf("restored window holds %d elements, want %d", len(want), elems)
	}
	for _, q := range r.Queries() {
		got := q.hist.Elements()
		if len(got) != elems {
			t.Fatalf("%s: restored history holds %d elements, want %d", q.Name(), len(got), elems)
		}
		for i := range got {
			if got[i].Graph != want[i].Graph {
				t.Fatalf("%s: element %d is a separate copy of the stream's graph", q.Name(), i)
			}
		}
	}
}

// TestCheckpointRejectsNonSuffixHistory: a history that is not a suffix
// of its stream's window fails the save instead of being stored wrong.
func TestCheckpointRejectsNonSuffixHistory(t *testing.T) {
	e := New()
	for _, name := range []string{"hot", "cold"} {
		if _, err := e.RegisterSource(strings.Replace(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), "hot", name, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := e.Push(sensorGraph(int64(1000+i), "s1", 41), tick(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}
	// A graph only one query holds breaks the shared suffix.
	if err := e.queries["cold"].hist.Append(sensorGraph(2000, "s1", 41), tick(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(io.Discard); err == nil || !strings.Contains(err.Error(), "not a suffix") {
		t.Fatalf("Checkpoint error = %v, want a suffix violation", err)
	}
}

func mustParseReg(t *testing.T, src string) *ast.Registration {
	t.Helper()
	reg, err := parser.ParseRegistration(src)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}
