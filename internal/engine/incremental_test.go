package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"seraph/internal/graphstore"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
	"seraph/internal/workload"
)

// TestIncrementalReproducesPaperTables: the rolling-snapshot mode must
// produce the exact Tables 5/6 outputs of the rebuild mode.
func TestIncrementalReproducesPaperTables(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		e := New(WithIncrementalSnapshots(incremental))
		col := &Collector{}
		if _, err := e.RegisterSource(workload.StudentTrickQuery, col.Sink()); err != nil {
			t.Fatal(err)
		}
		for _, el := range workload.Figure1Stream() {
			if err := e.Push(el.Graph, el.Time); err != nil {
				t.Fatal(err)
			}
			if err := e.AdvanceTo(el.Time); err != nil {
				t.Fatal(err)
			}
		}
		nonEmpty := col.NonEmpty()
		if len(nonEmpty) != 2 {
			t.Fatalf("incremental=%v: non-empty = %d", incremental, len(nonEmpty))
		}
		if u := nonEmpty[0].Table.Get(0, "r.user_id").Int(); u != 1234 {
			t.Errorf("incremental=%v: first user %d", incremental, u)
		}
		if u := nonEmpty[1].Table.Get(0, "r.user_id").Int(); u != 5678 {
			t.Errorf("incremental=%v: second user %d", incremental, u)
		}
	}
}

// TestQuickIncrementalEquivalence: over random streams (with heavy
// entity overlap across elements), incremental and rebuild modes emit
// identical result tables at every evaluation instant.
func TestQuickIncrementalEquivalence(t *testing.T) {
	src := `
REGISTER QUERY q STARTING AT 2026-07-06T10:00:00
{
  MATCH (s:Sensor)-[r:READ]->(z:Zone)
  WITHIN PT20S
  EMIT s.name AS sensor, count(*) AS n, sum(r.v) AS total
  SNAPSHOT EVERY PT7S
}`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var streams [2]*Collector
		for mode := 0; mode < 2; mode++ {
			e := New(WithIncrementalSnapshots(mode == 1))
			col := &Collector{}
			if _, err := e.RegisterSource(src, col.Sink()); err != nil {
				return false
			}
			rr := rand.New(rand.NewSource(seed)) // same stream both modes
			now := base
			for i := 0; i < 25; i++ {
				now = now.Add(time.Duration(1+rr.Intn(8)) * time.Second)
				g := randSensorEvent(rr, i)
				if err := e.Push(g, now); err != nil {
					return false
				}
				if err := e.AdvanceTo(now); err != nil {
					return false
				}
			}
			streams[mode] = col
		}
		a, b := streams[0], streams[1]
		if len(a.Results) != len(b.Results) {
			return false
		}
		for i := range a.Results {
			if !a.Results[i].At.Equal(b.Results[i].At) {
				return false
			}
			if !sameBag(a.Results[i].Table, b.Results[i].Table) {
				return false
			}
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randSensorEvent builds an event over a small shared id space so
// elements overlap heavily: same sensors and zones recur, and repeated
// (sensor, zone, reading) triples recreate identical relationship ids.
func randSensorEvent(r *rand.Rand, i int) *pg.Graph {
	g := pg.New()
	nReadings := 1 + r.Intn(3)
	for j := 0; j < nReadings; j++ {
		sid := int64(1 + r.Intn(4))
		zid := int64(100 + r.Intn(3))
		v := int64(r.Intn(5))
		g.AddNode(&value.Node{ID: sid, Labels: []string{"Sensor"}, Props: map[string]value.Value{
			"name": value.NewString(sensorName(sid))}})
		g.AddNode(&value.Node{ID: zid, Labels: []string{"Zone"}, Props: map[string]value.Value{}})
		relID := int64(100000 + i*10 + j)
		_ = g.AddRel(&value.Relationship{ID: relID, StartID: sid, EndID: zid, Type: "READ",
			Props: map[string]value.Value{"v": value.NewInt(v)}})
	}
	return g
}

func sensorName(id int64) string {
	return string(rune('a'+id)) + "-sensor"
}

// TestIncrementalWithStaticGraph: the static background graph persists
// across window slides in incremental mode.
func TestIncrementalWithStaticGraph(t *testing.T) {
	static := pg.New()
	static.AddNode(&value.Node{ID: 999, Labels: []string{"Anchor"}, Props: map[string]value.Value{}})
	e := New(WithIncrementalSnapshots(true), WithStaticGraph(static))
	col := &Collector{}
	if _, err := e.RegisterSource(`
REGISTER QUERY a STARTING AT 2026-07-06T10:00:00
{
  MATCH (x:Anchor) WITHIN PT10S
  EMIT count(*) AS n
  SNAPSHOT EVERY PT5S
}`, col.Sink()); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(sensorGraph(1, "s1", 1), tick(0)); err != nil {
		t.Fatal(err)
	}
	// Several slides: the anchor must survive every window change.
	if err := e.AdvanceTo(tick(30)); err != nil {
		t.Fatal(err)
	}
	for _, r := range col.Results {
		if r.Table.Get(0, "n").Int() != 1 {
			t.Fatalf("anchor lost at %s", r.At)
		}
	}
}

// TestRollingRefcounts exercises the rolling structure directly:
// overlapping contributions keep entities alive until the last
// contributor leaves.
func TestRollingRefcounts(t *testing.T) {
	mk := func(relID int64, withLabel bool, propVal int64) *pg.Graph {
		g := pg.New()
		labels := []string{"N"}
		if withLabel {
			labels = append(labels, "Extra")
		}
		g.AddNode(&value.Node{ID: 1, Labels: labels, Props: map[string]value.Value{
			"v": value.NewInt(propVal)}})
		g.AddNode(&value.Node{ID: 2, Labels: []string{"N"}, Props: map[string]value.Value{}})
		_ = g.AddRel(&value.Relationship{ID: relID, StartID: 1, EndID: 2, Type: "R",
			Props: map[string]value.Value{}})
		return g
	}
	r := newRolling()
	g1 := mk(10, true, 7)
	g2 := mk(11, false, 7)
	if _, _, err := r.advance(streamElem(g1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.advance(append(streamElem(g1, 0), streamElem(g2, 1)...)); err != nil {
		t.Fatal(err)
	}
	if r.store.NumNodes() != 2 || r.store.NumRels() != 2 {
		t.Fatalf("sizes %d/%d", r.store.NumNodes(), r.store.NumRels())
	}
	// Drop g1: node 1 survives (g2 still contributes) but loses the
	// Extra label; rel 10 disappears.
	if _, _, err := r.advance(streamElem(g2, 1)); err != nil {
		t.Fatal(err)
	}
	n := r.store.Node(1)
	if n == nil || n.HasLabel("Extra") {
		t.Fatalf("label refcounting: %+v", n)
	}
	if !value.Equivalent(n.Prop("v"), value.NewInt(7)) {
		t.Errorf("shared property lost: %s", n.Prop("v"))
	}
	if r.store.Rel(10) != nil || r.store.Rel(11) == nil {
		t.Error("relationship refcounting")
	}
	// Drop everything.
	if _, _, err := r.advance(nil); err != nil {
		t.Fatal(err)
	}
	if r.store.NumNodes() != 0 || r.store.NumRels() != 0 {
		t.Errorf("empty window: %d/%d", r.store.NumNodes(), r.store.NumRels())
	}
	// Conflicting property values are inconsistent (Definition 5.4).
	if _, _, err := r.advance(append(streamElem(mk(12, false, 1), 0), streamElem(mk(13, false, 2), 1)...)); err == nil {
		t.Error("conflicting property must be inconsistent")
	}
}

func streamElem(g *pg.Graph, sec int) []stream.Element {
	return []stream.Element{{Graph: g, Time: tick(sec)}}
}

// TestRollingMatchesUnionQuick is the rolling store's differential
// test: over random windows drawn from a pool of elements whose ids
// overlap (differing label and property subsets, consistent values
// written as 1 or 1.0, and the occasional conflicting value or
// topology), after every advance the store equals pg.UnionAll of the
// window, the drained Delta equals the entity-level difference from the
// previous state, and the inconsistency verdict equals UnionAll's.
func TestRollingMatchesUnionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		pool := make([]*pg.Graph, 10)
		for i := range pool {
			pool[i] = randOverlapElement(rnd)
		}
		r := newRolling()
		r.store.BeginDelta()
		var prev []*pg.Graph // the window the store held after the last drain
		for step := 0; step < 15; step++ {
			var window []*pg.Graph
			var elems []stream.Element
			for i, g := range pool {
				if rnd.Intn(2) == 0 {
					window = append(window, g)
					elems = append(elems, stream.Element{Graph: g, Time: tick(i)})
				}
			}
			_, _, err := r.advance(elems)
			_, uerr := pg.UnionAll(window)
			if (err == nil) != (uerr == nil) {
				t.Logf("seed %d step %d: advance err %v, UnionAll err %v", seed, step, err, uerr)
				return false
			}
			if err != nil && !errors.As(err, new(*pg.Inconsistency)) {
				t.Logf("seed %d step %d: advance err %v is not an Inconsistency", seed, step, err)
				return false
			}
			// After a failed advance the store holds the elements it
			// admitted; the failing one left nothing behind.
			var held []*pg.Graph
			for _, g := range pool {
				if _, ok := r.included[g]; ok {
					held = append(held, g)
				}
			}
			if err == nil && len(held) != len(window) {
				t.Logf("seed %d step %d: %d elements included, window has %d", seed, step, len(held), len(window))
				return false
			}
			want := mustUnion(t, held)
			if diff := storeDiff(r.store, want); diff != "" {
				t.Logf("seed %d step %d: store differs from the union: %s", seed, step, diff)
				return false
			}
			got := r.store.TakeDelta()
			if err == nil {
				if diff := deltaDiff(got, expectedDelta(t, prev, held)); diff != "" {
					t.Logf("seed %d step %d: delta: %s", seed, step, diff)
					return false
				}
			}
			prev = held
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randOverlapElement draws one element over six node ids and eight
// relationship ids. Each (entity, key) has one canonical number, written
// as an int or an equal float; one draw in 150 writes a conflicting value
// instead, and one relationship draw in 60 a conflicting type.
func randOverlapElement(rnd *rand.Rand) *pg.Graph {
	num := func(id int64, k int) value.Value {
		v := id*10 + int64(k)
		switch {
		case rnd.Intn(150) == 0:
			return value.NewInt(v + 1)
		case rnd.Intn(2) == 0:
			return value.NewFloat(float64(v))
		}
		return value.NewInt(v)
	}
	props := func(id int64) map[string]value.Value {
		m := map[string]value.Value{}
		for k, key := range []string{"x", "y", "z"} {
			if rnd.Intn(2) == 0 {
				m[key] = num(id, k)
			}
		}
		return m
	}
	g := pg.New()
	addNode := func(id int64) {
		var labels []string
		for _, l := range []string{"A", "B", "C"} {
			if rnd.Intn(2) == 0 {
				labels = append(labels, l)
			}
		}
		g.AddNode(&value.Node{ID: id, Labels: labels, Props: props(id)})
	}
	for _, id := range rnd.Perm(6)[:1+rnd.Intn(4)] {
		addNode(int64(id + 1))
	}
	for _, i := range rnd.Perm(8)[:rnd.Intn(4)] {
		id := int64(100 + i)
		start, end := 1+id%6, 1+(id*7)%6
		typ := []string{"R", "S"}[id%2]
		if rnd.Intn(60) == 0 {
			typ = "T"
		}
		for _, n := range []int64{start, end} {
			if g.Node(n) == nil {
				addNode(n)
			}
		}
		_ = g.AddRel(&value.Relationship{ID: id, StartID: start, EndID: end, Type: typ, Props: props(id)})
	}
	return g
}

func mustUnion(t *testing.T, gs []*pg.Graph) *pg.Graph {
	t.Helper()
	u, err := pg.UnionAll(gs)
	if err != nil {
		t.Fatalf("union of admitted elements: %v", err)
	}
	return u
}

// storeDiff describes the first difference between the store and g:
// entity ids, label sets (and the label index), properties up to
// value.Equivalent, and relationship topology. "" means equal.
func storeDiff(s *graphstore.Store, g *pg.Graph) string {
	if s.NumNodes() != g.NumNodes() || s.NumRels() != g.NumRels() {
		return fmt.Sprintf("sizes %d/%d, want %d/%d", s.NumNodes(), s.NumRels(), g.NumNodes(), g.NumRels())
	}
	for _, n := range g.Nodes() {
		sn := s.Node(n.ID)
		if sn == nil {
			return fmt.Sprintf("node %d missing", n.ID)
		}
		if !sameNodeState(sn, n) {
			return fmt.Sprintf("node %d: %v %v, want %v %v", n.ID, sn.Labels, sn.Props, n.Labels, n.Props)
		}
	}
	for _, l := range []string{"A", "B", "C"} {
		var want []int64
		for _, n := range g.Nodes() {
			if n.HasLabel(l) {
				want = append(want, n.ID)
			}
		}
		var got []int64
		for _, n := range s.NodesByLabel(l) {
			got = append(got, n.ID)
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("label index %s: %v, want %v", l, got, want)
		}
	}
	for _, rel := range g.Rels() {
		sr := s.Rel(rel.ID)
		if sr == nil {
			return fmt.Sprintf("relationship %d missing", rel.ID)
		}
		if sr.StartID != rel.StartID || sr.EndID != rel.EndID || sr.Type != rel.Type || !sameProps(sr.Props, rel.Props) {
			return fmt.Sprintf("relationship %d: %+v, want %+v", rel.ID, *sr, *rel)
		}
	}
	return ""
}

func sameNodeState(a, b *value.Node) bool {
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	for _, l := range a.Labels {
		if !b.HasLabel(l) {
			return false
		}
	}
	return sameProps(a.Props, b.Props)
}

func sameProps(a, b map[string]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !value.Equivalent(v, w) {
			return false
		}
	}
	return true
}

// expectedDelta derives a round's netted Delta from the windows before
// and after it. Removals run before additions, so the round passes
// through the union of the surviving elements: an entity absent there
// but present before and after was replaced (added and removed); one
// present throughout is updated when the removal phase or the addition
// phase changed its labels or properties (each phase changes the store
// monotonically, so a change inside it shows in its endpoints).
func expectedDelta(t *testing.T, before, after []*pg.Graph) *graphstore.Delta {
	t.Helper()
	var survivors []*pg.Graph
	for _, g := range before {
		if slices.Contains(after, g) {
			survivors = append(survivors, g)
		}
	}
	b, m, a := mustUnion(t, before), mustUnion(t, survivors), mustUnion(t, after)
	d := &graphstore.Delta{}
	classify := func(ids map[int64]bool, present func(*pg.Graph, int64) bool, same func(g1, g2 *pg.Graph, id int64) bool,
		added, removed, updated *[]int64) {
		for id := range ids {
			inB, inM, inA := present(b, id), present(m, id), present(a, id)
			switch {
			case inB && !inA:
				*removed = append(*removed, id)
			case !inB && inA:
				*added = append(*added, id)
			case inB && inA && !inM:
				*added = append(*added, id)
				*removed = append(*removed, id)
			case inB && inA && (!same(b, m, id) || !same(m, a, id)):
				*updated = append(*updated, id)
			}
		}
		for _, ids := range []*[]int64{added, removed, updated} {
			slices.Sort(*ids)
		}
	}
	nodeIDs, relIDs := map[int64]bool{}, map[int64]bool{}
	for _, g := range []*pg.Graph{b, a} {
		g.EachNode(func(n *value.Node) { nodeIDs[n.ID] = true })
		g.EachRel(func(r *value.Relationship) { relIDs[r.ID] = true })
	}
	classify(nodeIDs, func(g *pg.Graph, id int64) bool { return g.Node(id) != nil },
		func(g1, g2 *pg.Graph, id int64) bool { return sameNodeState(g1.Node(id), g2.Node(id)) },
		&d.AddedNodes, &d.RemovedNodes, &d.UpdatedNodes)
	classify(relIDs, func(g *pg.Graph, id int64) bool { return g.Rel(id) != nil },
		func(g1, g2 *pg.Graph, id int64) bool { return sameProps(g1.Rel(id).Props, g2.Rel(id).Props) },
		&d.AddedRels, &d.RemovedRels, &d.UpdatedRels)
	return d
}

func deltaDiff(got, want *graphstore.Delta) string {
	g := [][]int64{got.AddedNodes, got.RemovedNodes, got.UpdatedNodes, got.AddedRels, got.RemovedRels, got.UpdatedRels}
	w := [][]int64{want.AddedNodes, want.RemovedNodes, want.UpdatedNodes, want.AddedRels, want.RemovedRels, want.UpdatedRels}
	for i, name := range []string{"added nodes", "removed nodes", "updated nodes", "added rels", "removed rels", "updated rels"} {
		if !slices.Equal(g[i], w[i]) {
			return fmt.Sprintf("%s %v, want %v", name, g[i], w[i])
		}
	}
	return ""
}

// mqoShapedElements builds n serve-mqo-shaped elements, one per second:
// four families of (User)-[:Tp]->(Svc)-[:Lp]->(Host), 12 nodes and 8
// relationships with one property each, all ids fresh.
func mqoShapedElements(n int) []stream.Element {
	prop := func(k string, v int64) map[string]value.Value { return map[string]value.Value{k: value.NewInt(v)} }
	out := make([]stream.Element, n)
	id := int64(1_000_000)
	for i := range out {
		g := pg.New()
		for p := 0; p < 4; p++ {
			uid, svc, hid, rid, sid := id, id+1, id+2, id+3, id+4
			id += 5
			g.AddNode(&value.Node{ID: uid, Labels: []string{"User"}, Props: prop("uid", uid)})
			g.AddNode(&value.Node{ID: svc, Labels: []string{"Svc"}, Props: prop("sid", svc)})
			g.AddNode(&value.Node{ID: hid, Labels: []string{"Host"}, Props: prop("hid", hid)})
			_ = g.AddRel(&value.Relationship{ID: rid, StartID: uid, EndID: svc, Type: fmt.Sprint("T", p), Props: prop("v", id%20)})
			_ = g.AddRel(&value.Relationship{ID: sid, StartID: svc, EndID: hid, Type: fmt.Sprint("L", p), Props: prop("w", id%1000)})
		}
		out[i] = stream.Element{Graph: g, Time: tick(i)}
	}
	return out
}

// rollingAdvancer returns a delta-recording rolling store holding a
// 30-element window, and a step that slides the window by one element
// (one enters, one leaves) and drains the delta, as a delta-evaluated
// query does once per instant.
func rollingAdvancer(tb testing.TB, steps int) func() {
	const width = 30
	elems := mqoShapedElements(width + steps + 1)
	r := newRolling()
	r.store.BeginDelta()
	if _, _, err := r.advance(elems[:width]); err != nil {
		tb.Fatal(err)
	}
	r.store.TakeDelta()
	i := 0
	return func() {
		i++
		if _, _, err := r.advance(elems[i : i+width]); err != nil {
			tb.Fatal(err)
		}
		r.store.TakeDelta()
	}
}

func BenchmarkRollingAdvance(b *testing.B) {
	step := rollingAdvancer(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRollingAdvanceAllocs bounds the allocations of one window slide
// of serve-mqo shape. The bound is three quarters of what per-property
// refcounting cost (240).
func TestRollingAdvanceAllocs(t *testing.T) {
	const runs = 200
	step := rollingAdvancer(t, runs+1)
	if got := testing.AllocsPerRun(runs, step); got > 180 {
		t.Errorf("%.0f allocations per advance, want at most 180", got)
	} else {
		t.Logf("%.0f allocations per advance", got)
	}
}
