package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seraph/internal/window"
)

// pushTick pushes one sensor reading and advances the clock.
func pushTick(t *testing.T, e *Engine, relID int64, at int, v int64) {
	t.Helper()
	if err := e.Push(sensorGraph(relID, "s1", v), tick(at)); err != nil {
		t.Fatal(err)
	}
	if err := e.AdvanceTo(tick(at)); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsConflictingOptions: restoring under explicit
// options that contradict the checkpoint's configuration must fail
// with a descriptive error instead of silently changing semantics.
func TestRestoreRejectsConflictingOptions(t *testing.T) {
	e := New() // delta off, cache off, paper-example bounds
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Option
		want string // "" means the restore must succeed
	}{
		{"delta-on-vs-off", WithDeltaEval(true), "delta evaluation"},
		{"shared-on-vs-off", WithSharedEval(true), "shared evaluation"},
		{"cache-on-vs-off", WithSnapshotCache(true), "snapshot cache"},
		{"bounds-strict-vs-paper", WithBounds(window.BoundsStrict), "window bounds"},
		{"incremental-on-vs-off", WithIncrementalSnapshots(true), "incremental snapshots"},
		{"matching-explicit", WithDeltaEval(false), ""},
		{"matching-bounds", WithBounds(window.BoundsPaperExample), ""},
		{"uncarried-option", WithHistoryRetention(5), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Restore(bytes.NewReader(buf.Bytes()), nil, tc.opt)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("restore with compatible option failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("restore with conflicting option succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the conflicting %q setting", err, tc.want)
			}
		})
	}

	// The converse direction: a delta-mode checkpoint refuses an
	// explicit non-delta restore (and its implied incremental state).
	ed := New(WithDeltaEval(true))
	if _, err := ed.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ed.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), nil, WithDeltaEval(false)); err == nil {
		t.Fatal("non-delta restore of a delta checkpoint succeeded")
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), nil, WithDeltaEval(true)); err != nil {
		t.Fatalf("matching delta restore failed: %v", err)
	}
}

// TestCheckpointerSaveRecover: repeated saves recover to an engine
// whose subsequent emissions match an uninterrupted run, and the
// checkpoint round-trips the caller's stream offsets.
func TestCheckpointerSaveRecover(t *testing.T) {
	// Reference: uninterrupted run over the whole schedule.
	ref := &Collector{}
	re := New()
	if _, err := re.RegisterSource(strings.Replace(sensorQuery, "%s", "ON ENTERING", 1), ref.Sink()); err != nil {
		t.Fatal(err)
	}
	vals := []int64{41, 50, 20, 60, 70, 45, 30, 55}
	for i, v := range vals {
		pushTick(t, re, int64(1000+i), i*5, v)
	}

	dir := t.TempDir()
	e := New()
	col1 := &Collector{}
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "ON ENTERING", 1), col1.Sink()); err != nil {
		t.Fatal(err)
	}
	ck, err := e.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals[:5] {
		pushTick(t, e, int64(1000+i), i*5, v)
		if err := ck.Save(map[string][]int64{"events": {int64(i + 1)}}); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if ck.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", ck.Seq())
	}

	// Crash here: recover from disk and play the rest of the schedule.
	col2 := &Collector{}
	e2, info, err := Recover(dir, func(string) Sink { return col2.Sink() })
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 5 {
		t.Errorf("recovered Seq = %d, want 5", info.Seq)
	}
	if got := info.Offsets["events"]; len(got) != 1 || got[0] != 5 {
		t.Errorf("recovered offsets = %v, want [5]", info.Offsets)
	}
	if info.Duration <= 0 {
		t.Error("recovery duration not measured")
	}
	for i, v := range vals[5:] {
		pushTick(t, e2, int64(1005+i), (5+i)*5, v)
	}

	combined := append(append([]Result(nil), col1.Results...), col2.Results...)
	if len(combined) != len(ref.Results) {
		t.Fatalf("evaluations: %d recovered vs %d reference", len(combined), len(ref.Results))
	}
	for i := range ref.Results {
		if !ref.Results[i].At.Equal(combined[i].At) {
			t.Fatalf("instant %d: %s vs %s", i, ref.Results[i].At, combined[i].At)
		}
		if !sameBag(ref.Results[i].Table, combined[i].Table) {
			t.Errorf("tables differ at %s:\nref:\n%s\nrecovered:\n%s",
				ref.Results[i].At.Format("15:04:05"), ref.Results[i].Table, combined[i].Table)
		}
	}
}

// TestRecoverNoCheckpoint: an empty directory is a typed miss, not an
// error to retry.
func TestRecoverNoCheckpoint(t *testing.T) {
	_, _, err := Recover(t.TempDir(), nil)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestRecoverIgnoresOrphans: a torn MANIFEST.json.tmp — what a crash
// mid-save leaves behind — must not confuse Recover, and the next Save
// replaces it.
func TestRecoverIgnoresOrphans(t *testing.T) {
	dir := t.TempDir()
	e := New()
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	ck, err := e.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	pushTick(t, e, 1000, 0, 41)
	if err := ck.Save(nil); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"version": 2, "seq": 99, "torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, info, err := Recover(dir, nil); err != nil || info.Seq != 1 {
		t.Fatalf("recover with a torn save present: info=%+v err=%v", info, err)
	}
	pushTick(t, e, 1001, 5, 50)
	if err := ck.Save(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Error("torn temp file survived the next save")
	}
	if _, info, err := Recover(dir, nil); err != nil || info.Seq != 2 {
		t.Fatalf("recover after the next save: info=%+v err=%v", info, err)
	}
}

// TestCheckpointerRetention: however many saves run, the directory
// holds only the one checkpoint file.
func TestCheckpointerRetention(t *testing.T) {
	dir := t.TempDir()
	e := New()
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	ck, err := e.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		pushTick(t, e, int64(1000+i), i*5, int64(41+i))
		if err := ck.Save(nil); err != nil {
			t.Fatal(err)
		}
		if files := dirEntries(t, dir); len(files) != 1 || files[0] != manifestName {
			t.Fatalf("save %d: directory holds %v, want [%s]", i, files, manifestName)
		}
	}
	if _, info, err := Recover(dir, nil); err != nil || info.Seq != 12 {
		t.Fatalf("recover after 12 saves: info=%+v err=%v", info, err)
	}
}

// TestCheckpointerResumesSeqAcrossRestart: a new Checkpointer over an
// existing directory continues the sequence numbers.
func TestCheckpointerResumesSeqAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e := New()
	if _, err := e.RegisterSource(strings.Replace(sensorQuery, "%s", "SNAPSHOT", 1), nil); err != nil {
		t.Fatal(err)
	}
	ck, err := e.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	pushTick(t, e, 1000, 0, 41)
	if err := ck.Save(nil); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover the engine, open a fresh Checkpointer on the
	// same directory, keep going.
	e2, info, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := e2.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Seq() != info.Seq {
		t.Fatalf("resumed Seq = %d, want %d", ck2.Seq(), info.Seq)
	}
	pushTick(t, e2, 1001, 5, 50)
	if err := ck2.Save(nil); err != nil {
		t.Fatal(err)
	}
	if _, info2, err := Recover(dir, nil); err != nil || info2.Seq != 2 {
		t.Fatalf("recover after resumed save: info=%+v err=%v", info2, err)
	}
}

// deltaEquivQueries exercises the three maintained-state rebuild paths:
// plain provenance-indexed matches, order-statistic (treap) top-k, and
// grouped removable aggregates.
var deltaEquivQueries = []string{
	`REGISTER QUERY plain STARTING AT 2026-07-06T10:00:00
{ MATCH (s:Sensor)-[r:READ]->(z:Zone) WITHIN PT20S WHERE r.v > 30
  EMIT s.name AS sensor, r.v AS v SNAPSHOT EVERY PT5S }`,
	`REGISTER QUERY topk STARTING AT 2026-07-06T10:00:00
{ MATCH (s:Sensor)-[r:READ]->(z:Zone) WITHIN PT20S
  EMIT s.name AS sensor, r.v AS v ORDER BY v DESC LIMIT 2 SNAPSHOT EVERY PT5S }`,
	`REGISTER QUERY agg STARTING AT 2026-07-06T10:00:00
{ MATCH (s:Sensor)-[r:READ]->(z:Zone) WITHIN PT20S
  EMIT s.name AS sensor, count(*) AS n ON ENTERING EVERY PT5S }`,
}

// TestRecoverDeltaStateEquivalence: after Recover, a delta-mode
// engine's rebuilt maintained state (match sets, provenance index,
// order-statistic sizes, aggregate groups) is structurally identical to
// the pre-crash engine's, not just behaviourally similar.
func TestRecoverDeltaStateEquivalence(t *testing.T) {
	dir := t.TempDir()
	// Bypass off on both sides: the churn guard is a performance knob a
	// checkpoint does not carry, and a bypassed round keeps no
	// maintained state to compare.
	e := New(WithDeltaEval(true), WithDeltaBypassRatio(0))
	for _, src := range deltaEquivQueries {
		if _, err := e.RegisterSource(src, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []int64{41, 25, 60, 35, 50} {
		pushTick(t, e, int64(1000+i), i*5, v)
	}
	ck, err := e.NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(nil); err != nil {
		t.Fatal(err)
	}

	e2, _, err := Recover(dir, nil, WithDeltaBypassRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "topk", "agg"} {
		orig, rec := e.queries[name], e2.queries[name]
		if orig == nil || rec == nil {
			t.Fatalf("query %q missing (orig=%v rec=%v)", name, orig != nil, rec != nil)
		}
		od, rd := orig.delta, rec.delta
		if od == nil || rd == nil {
			t.Fatalf("query %q: delta state missing (orig=%v rec=%v)", name, od != nil, rd != nil)
		}
		if od.failed || rd.failed {
			t.Fatalf("query %q: delta maintenance failed (orig=%v rec=%v)", name, od.failed, rd.failed)
		}
		if len(od.matches) != len(rd.matches) {
			t.Errorf("query %q: %d live matches recovered, want %d", name, len(rd.matches), len(od.matches))
		}
		for key := range od.matches {
			if _, ok := rd.matches[key]; !ok {
				t.Errorf("query %q: match %q lost in recovery", name, key)
			}
		}
		if len(od.prov) != len(rd.prov) {
			t.Errorf("query %q: provenance index has %d seeds, want %d", name, len(rd.prov), len(od.prov))
		}
		os0, rs0 := od.subs[0], rd.subs[0]
		if (os0.ord == nil) != (rs0.ord == nil) {
			t.Fatalf("query %q: order-statistic presence differs", name)
		}
		if os0.ord != nil && os0.ord.Len() != rs0.ord.Len() {
			t.Errorf("query %q: order-statistic treap holds %d rows, want %d", name, rs0.ord.Len(), os0.ord.Len())
		}
		if len(os0.groups) != len(rs0.groups) {
			t.Errorf("query %q: %d aggregate groups recovered, want %d", name, len(rs0.groups), len(os0.groups))
		}
	}

	// And the rebuilt state keeps producing oracle-identical results.
	col, col2 := map[string]*Collector{}, map[string]*Collector{}
	for _, name := range []string{"plain", "topk", "agg"} {
		col[name], col2[name] = &Collector{}, &Collector{}
		e.queries[name].sink = col[name].Sink()
		e2.queries[name].sink = col2[name].Sink()
	}
	for i, v := range []int64{20, 65, 45} {
		pushTick(t, e, int64(2000+i), 25+i*5, v)
		pushTick(t, e2, int64(2000+i), 25+i*5, v)
	}
	for _, name := range []string{"plain", "topk", "agg"} {
		a, b := col[name].Results, col2[name].Results
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d post-recovery results", name, len(a), len(b))
		}
		for i := range a {
			if !sameBag(a[i].Table, b[i].Table) {
				t.Errorf("query %q diverges at %s:\norig:\n%s\nrecovered:\n%s",
					name, a[i].At.Format("15:04:05"), a[i].Table, b[i].Table)
			}
		}
	}
}

// TestRecoverSharedGroupEquivalence: multi-query groups re-form after
// recovery with the same membership. With the sharing hierarchy on
// (the default) a query registered mid-stream merges into the running
// generation and recovery reunites all members on one chassis; with
// the hierarchy off the later generation stays in its own group
// exactly as before the crash — and the off switch itself round-trips
// through the checkpoint.
func TestRecoverSharedGroupEquivalence(t *testing.T) {
	mk := func(name string) string {
		return `REGISTER QUERY ` + name + ` STARTING AT 2026-07-06T10:00:00
{ MATCH (s:Sensor)-[r:READ]->(z:Zone) WITHIN PT20S WHERE r.v > 30
  EMIT s.name AS sensor, r.v AS v SNAPSHOT EVERY PT5S }`
	}
	for _, tc := range []struct {
		name string
		opts []Option
		sets []string // expected member sets, before and after recovery
	}{
		{"hierarchical", []Option{WithSharedEval(true)}, []string{"qa,qb,qc"}},
		{"equality_only", []Option{WithSharedEval(true), WithSharedHierarchy(false)},
			[]string{"qa,qb", "qc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := New(tc.opts...)
			for _, n := range []string{"qa", "qb"} {
				if _, err := e.RegisterSource(mk(n), nil); err != nil {
					t.Fatal(err)
				}
			}
			pushTick(t, e, 1000, 0, 41)
			pushTick(t, e, 1001, 5, 55)
			// qc arrives mid-stream: same fingerprint, started chassis.
			// Hierarchy on: merges into qa/qb's generation. Off: a later
			// generation whose window history differs from the chassis.
			if _, err := e.RegisterSource(mk("qc"), nil); err != nil {
				t.Fatal(err)
			}
			pushTick(t, e, 1002, 10, 60)

			groupsOf := func(eng *Engine) map[string][]string {
				out := map[string][]string{}
				for _, g := range eng.groupList {
					var members []string
					for _, m := range g.members {
						members = append(members, m.name)
					}
					out[g.chassis.name] = members
				}
				return out
			}
			before := groupsOf(e)

			ck, err := e.NewCheckpointer(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.Save(nil); err != nil {
				t.Fatal(err)
			}
			e2, _, err := Recover(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			after := groupsOf(e2)
			if len(before) != len(tc.sets) || len(after) != len(tc.sets) {
				t.Fatalf("group count: before %d, after %d, want %d (%v vs %v)",
					len(before), len(after), len(tc.sets), before, after)
			}
			memberSets := func(groups map[string][]string) map[string]int {
				sets := map[string]int{}
				for _, ms := range groups {
					sets[strings.Join(ms, ",")]++
				}
				return sets
			}
			bs, as := memberSets(before), memberSets(after)
			for _, set := range tc.sets {
				if bs[set] != 1 || as[set] != 1 {
					t.Errorf("member set {%s}: before=%v after=%v", set, before, after)
				}
			}

			// Post-recovery emissions match the surviving original.
			colA, colB := &Collector{}, &Collector{}
			e.queries["qc"].sink = colA.Sink()
			e2.queries["qc"].sink = colB.Sink()
			pushTick(t, e, 1003, 15, 70)
			pushTick(t, e2, 1003, 15, 70)
			if len(colA.Results) == 0 || len(colA.Results) != len(colB.Results) {
				t.Fatalf("post-recovery results: %d vs %d", len(colA.Results), len(colB.Results))
			}
			for i := range colA.Results {
				if !sameBag(colA.Results[i].Table, colB.Results[i].Table) {
					t.Errorf("qc diverges at %s", colA.Results[i].At.Format("15:04:05"))
				}
			}
		})
	}
}
