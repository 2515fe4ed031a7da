package server

// topology.go rejects a relationship id reused with other endpoints or
// type while both events can fall in one window, whose union that makes
// inconsistent (Def. 5.4), failing its query for good. Events share a
// window only if less than its WITHIN apart, so an accepted relationship
// is kept for at least W and at most 2W of event time, W = widest WITHIN.

import (
	"fmt"
	"sync"
	"time"

	"seraph/internal/engine"
	"seraph/internal/pg"
	"seraph/internal/value"
)

type relTopology struct {
	start, end int64
	typ        string // canonical: pg.AddRel interns types
}

// topologyIndex holds two generations: entries of cur have event time at
// most start+width, entries of prev at most start. Once event time passes
// start+width, cur becomes prev and the old prev is dropped. Callers hold
// mu from check through record (Server.admit).
type topologyIndex struct {
	mu          sync.Mutex
	width       time.Duration
	start, last time.Time // the current generation's start; the latest entry
	cur, prev   map[int64]relTopology
}

// setWidth sets W from e's registered queries. Restarting the generation
// at the latest entry keeps both invariants whether W grew or shrank.
func (x *topologyIndex) setWidth(e *engine.Engine) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var w time.Duration
	for _, q := range e.Queries() {
		w = max(w, q.Registration().MaxWithin())
	}
	if w != x.width {
		x.width, x.start = w, x.last
	}
	if w == 0 { // no window, so no two events can meet
		clear(x.cur)
		clear(x.prev)
	}
}

// live reports which generations an event at ts can still meet in a window.
func (x *topologyIndex) live(ts time.Time) (cur, prev bool) {
	if x.width == 0 {
		return false, false
	}
	d := ts.Sub(x.start)
	return d <= x.width || d-x.width <= x.width, d <= x.width
}

// check reports the lowest relationship id that g, at ts, reuses with
// other endpoints or type.
func (x *topologyIndex) check(g *pg.Graph, ts time.Time) error {
	cur, prev := x.live(ts)
	if !cur {
		return nil
	}
	var bad *value.Relationship
	g.EachRel(func(r *value.Relationship) {
		t, ok := x.cur[r.ID]
		if !ok && prev {
			t, ok = x.prev[r.ID]
		}
		if ok && t != (relTopology{r.StartID, r.EndID, r.Type}) && (bad == nil || r.ID < bad.ID) {
			bad = r
		}
	})
	if bad != nil {
		return fmt.Errorf("relationship %d conflicts with existing topology within %s", bad.ID, x.width)
	}
	return nil
}

// record remembers the relationships of g, accepted at ts.
func (x *topologyIndex) record(g *pg.Graph, ts time.Time) {
	if x.width == 0 || g.NumRels() == 0 {
		return
	}
	switch cur, prev := x.live(ts); {
	case !cur:
		clear(x.cur)
		clear(x.prev)
		x.start = ts
	case !prev:
		x.cur, x.prev = x.prev, x.cur
		clear(x.cur)
		x.start = x.start.Add(x.width)
	}
	if x.cur == nil {
		x.cur, x.prev = map[int64]relTopology{}, map[int64]relTopology{}
	}
	g.EachRel(func(r *value.Relationship) { x.cur[r.ID] = relTopology{r.StartID, r.EndID, r.Type} })
	if ts.After(x.last) {
		x.last = ts
	}
}
