package seraph

// Index-layer ablation benchmarks (PR 3): the same workload evaluated
// through the planner-driven indexed matcher and the naive scan
// matcher (eval.Ctx.DisableMatchIndexes). Result bags are identical by
// construction (see TestPlannerDifferentialQuick); only enumeration
// cost differs. `make bench-index` runs this file alone.

import (
	"fmt"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/graphstore"
	"seraph/internal/parser"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// selectiveStore builds a 2n-node window: n User nodes whose `bucket`
// property selects ~selectivity·n of them for bucket = 0, each owning
// one Device node.
func selectiveStore(n int, selectivity float64) *graphstore.Store {
	buckets := int(1 / selectivity)
	s := graphstore.New()
	for i := 0; i < n; i++ {
		u := s.CreateNode([]string{"User"}, map[string]value.Value{
			"bucket": value.NewInt(int64(i % buckets)),
			"id":     value.NewInt(int64(i)),
		})
		d := s.CreateNode([]string{"Device"}, nil)
		if _, err := s.CreateRel(u.ID, d.ID, "OWNS", nil); err != nil {
			panic(err)
		}
	}
	return s
}

// BenchmarkSelectivePredicate: a pushed-down equality predicate at 1%
// selectivity over a 10k-node window (5k users + 5k devices), followed
// by one expansion step. The indexed matcher anchors on the
// (User, bucket) hash index and expands 50 users; the scan baseline
// enumerates the full label list, expands every user, and leaves the
// filtering to WHERE. Acceptance: indexed ≥ 5× fewer ns/op and
// allocs/op than scan.
func BenchmarkSelectivePredicate(b *testing.B) {
	store := selectiveStore(5_000, 0.01)
	q, err := parser.ParseQuery(`MATCH (u:User)-[:OWNS]->(d:Device) WHERE u.bucket = 0 RETURN count(d) AS n`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := &eval.Ctx{Store: store, DisableMatchIndexes: mode.scan}
			// Warm the lazy index outside the timed region, like a
			// long-lived continuous query would.
			if _, err := eval.EvalQuery(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := eval.EvalQuery(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if out.Rows[0][0].Int() != 50 {
					b.Fatalf("count = %s, want 50", out.Rows[0][0])
				}
			}
		})
	}
}

// BenchmarkTypedExpansion: expanding a single-type relationship pattern
// from hub nodes whose adjacency is dominated by other types. The
// type-partitioned adjacency lists touch only matching edges; the scan
// baseline walks every incident relationship and filters by type.
func BenchmarkTypedExpansion(b *testing.B) {
	const hubs, fanout, types = 20, 1000, 250
	store := graphstore.New()
	var hubIDs []int64
	for h := 0; h < hubs; h++ {
		hub := store.CreateNode([]string{"Hub"}, nil)
		hubIDs = append(hubIDs, hub.ID)
		for i := 0; i < fanout; i++ {
			leaf := store.CreateNode([]string{"Leaf"}, nil)
			typ := fmt.Sprintf("T%d", i%types)
			if _, err := store.CreateRel(hub.ID, leaf.ID, typ, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	q, err := parser.ParseQuery(`MATCH (h:Hub)-[:T0]->(l:Leaf) RETURN count(l) AS n`)
	if err != nil {
		b.Fatal(err)
	}
	want := int64(hubs * fanout / types)
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := &eval.Ctx{Store: store, DisableMatchIndexes: mode.scan}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := eval.EvalQuery(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if out.Rows[0][0].Int() != want {
					b.Fatalf("count = %s, want %d", out.Rows[0][0], want)
				}
			}
		})
	}
}

// BenchmarkEngineSelectivity: the same ablation end-to-end through the
// continuous engine (window maintenance + snapshot build + MATCH), via
// engine.WithScanMatcher (experiment B13 in DESIGN.md).
func BenchmarkEngineSelectivity(b *testing.B) {
	elems := userStream(8, 500, 100)
	src := fmt.Sprintf(`
REGISTER QUERY sel STARTING AT %s
{
  MATCH (u:User)
  WITHIN PT1H
  WHERE u.bucket = 0
  EMIT count(u) AS n
  SNAPSHOT EVERY PT5M
}`, elems[0].Time.Format("2006-01-02T15:04:05"))
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Incremental snapshots keep one rolling store (and its
				// maintained indexes) alive across evaluation instants.
				e := engine.New(engine.WithIncrementalSnapshots(true), engine.WithScanMatcher(mode.scan))
				if _, err := e.RegisterSource(src, nil); err != nil {
					b.Fatal(err)
				}
				for _, el := range elems {
					if err := e.Push(el.Graph, el.Time); err != nil {
						b.Fatal(err)
					}
					if err := e.AdvanceTo(el.Time); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// userStream builds batches of User nodes with a bucket property in
// [0, buckets); one batch every 5 minutes.
func userStream(batches, perBatch, buckets int) []stream.Element {
	start := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	var out []stream.Element
	id := int64(1)
	for bIdx := 0; bIdx < batches; bIdx++ {
		g := pg.New()
		for i := 0; i < perBatch; i++ {
			g.AddNode(&value.Node{ID: id, Labels: []string{"User"}, Props: map[string]value.Value{
				"bucket": value.NewInt(id % int64(buckets)),
			}})
			id++
		}
		out = append(out, stream.Element{Graph: g, Time: start.Add(time.Duration(bIdx) * 5 * time.Minute)})
	}
	return out
}
