package seraph

// Delta-driven evaluation benchmarks: per-instant evaluation cost under
// controlled window churn, full re-evaluation vs the maintained delta
// path (engine.WithDeltaEval), plus the BagDifference allocation fix
// the classic diff operators ride on. `make bench-delta` runs the
// benchmarks in this file; TestDeltaChurnSweep is the churn-sweep
// correctness and allocation gate that runs under `go test`.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// diffTables builds two bags of rows (3 columns) drawn from `distinct`
// row shapes, overlapping heavily — the shape BagDifference sees every
// instant from an ON ENTERING / ON EXITING query.
func diffTables(rows, distinct int) (*eval.Table, *eval.Table) {
	mk := func(offset int) *eval.Table {
		t := &eval.Table{Cols: []string{"a", "b", "c"}}
		for i := 0; i < rows; i++ {
			k := int64((i + offset) % distinct)
			t.Rows = append(t.Rows, []value.Value{
				value.NewInt(k),
				value.NewString(fmt.Sprintf("name-%d", k)),
				value.NewFloat(float64(k) / 3),
			})
		}
		return t
	}
	return mk(0), mk(distinct / 50)
}

// BenchmarkBagDifference: the diff operators call this at every
// instant on full result tables, so its per-row cost and allocation
// behaviour bound ON ENTERING / ON EXITING latency in classic mode.
// The row-key buffer is reused across rows; allocations stay
// proportional to the number of distinct u-side keys, not to
// rows × columns (see TestBagDifferenceAllocs).
func BenchmarkBagDifference(b *testing.B) {
	for _, rows := range []int{1_000, 10_000} {
		t, u := diffTables(rows, rows/10)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.BagDifference(t, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBagDifferenceAllocs pins the allocation behaviour: hashing every
// row through a shared append buffer means the only per-row
// allocations left are first insertions of distinct u-side keys. A
// regression to per-row string keys would cost ≥ 2·rows allocations
// (8192 here) and trip the bound.
func TestBagDifferenceAllocs(t *testing.T) {
	a, u := diffTables(4096, 32)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eval.BagDifference(a, u); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 512 {
		t.Fatalf("BagDifference allocated %.0f times for 4096 rows / 32 distinct keys; want O(distinct)", allocs)
	}
}

// churnStream builds the B14-style workload: a window holding
// `windowEdges` unique (User)-[:SESS]->(Svc) edges in `rounds` batches,
// one batch per slide, so at every instant 1/rounds of the window
// enters and exits — a controlled delta ratio with zero entity overlap.
func churnStream(rounds, perBatch, extra int, slide time.Duration) []stream.Element {
	start := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	var elems []stream.Element
	id := int64(1)
	for b := 0; b < rounds+extra; b++ {
		g := pg.New()
		for i := 0; i < perBatch; i++ {
			uid, did, rid := id, id+1, id+2
			id += 3
			g.AddNode(&value.Node{ID: uid, Labels: []string{"User"}, Props: map[string]value.Value{
				"uid": value.NewInt(uid)}})
			g.AddNode(&value.Node{ID: did, Labels: []string{"Svc"}, Props: map[string]value.Value{
				"did": value.NewInt(did)}})
			if err := g.AddRel(&value.Relationship{ID: rid, StartID: uid, EndID: did, Type: "SESS",
				Props: map[string]value.Value{"v": value.NewInt(1 + uid%5)}}); err != nil {
				panic(err)
			}
		}
		elems = append(elems, stream.Element{Graph: g, Time: start.Add(time.Duration(b) * slide)})
	}
	return elems
}

// churnQuery is the ON ENTERING query over a churnStream: its window
// spans `rounds` slides and its first instant is the last filling batch.
func churnQuery(elems []stream.Element, rounds int, slide time.Duration) string {
	return fmt.Sprintf(`
REGISTER QUERY churn STARTING AT %s
{
  MATCH (u:User)-[r:SESS]->(d:Svc)
  WITHIN %s
  WHERE r.v > 0
  EMIT u.uid AS uid, d.did AS did
  ON ENTERING EVERY %s
}`, elems[rounds-1].Time.Format("2006-01-02T15:04:05"),
		value.FormatDuration(time.Duration(rounds)*slide), value.FormatDuration(slide))
}

// maxDeltaAllocRatio bounds delta/full mallocs per instant at 1 % churn:
// 2 × the 0.107 the 10 k-edge sweep measured when the bound was set.
const maxDeltaAllocRatio = 0.214

// TestDeltaChurnSweep holds delta-driven evaluation to full evaluation
// across window churn ratios from 0.1 % to 50 % on a 2 000-edge window:
// identical result bags at every instant, every instant answered by the
// delta path (maintained or bypassed, never a fallback), and at 1 %
// churn a bounded fraction of full evaluation's allocations. The
// allocation ratio is scale-invariant, so the bound carries over from
// the 10 k-edge measurement.
func TestDeltaChurnSweep(t *testing.T) {
	const windowEdges, measure = 2000, 8
	slide := 5 * time.Second
	for _, ratio := range []float64{0.001, 0.01, 0.1, 0.3, 0.5} {
		t.Run(fmt.Sprintf("churn=%g", ratio), func(t *testing.T) {
			rounds := int(math.Round(1 / ratio))
			elems := churnStream(rounds, max(windowEdges/rounds, 1), measure, slide)
			src := churnQuery(elems, rounds, slide)
			var cols [2]engine.Collector
			var mallocs [2]uint64
			for i, opts := range [][]engine.Option{
				{engine.WithIncrementalSnapshots(true)},
				{engine.WithDeltaEval(true)},
			} {
				e := engine.New(opts...)
				q, err := e.RegisterSource(src, cols[i].Sink())
				if err != nil {
					t.Fatal(err)
				}
				// Fill the window and absorb the first (full-window Δ⁺)
				// instant before measuring.
				for _, el := range elems[:rounds] {
					if err := e.Push(el.Graph, el.Time); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.AdvanceTo(elems[rounds-1].Time); err != nil {
					t.Fatal(err)
				}
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				for _, el := range elems[rounds:] {
					if err := e.Push(el.Graph, el.Time); err != nil {
						t.Fatal(err)
					}
					if err := e.AdvanceTo(el.Time); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&m1)
				mallocs[i] = m1.Mallocs - m0.Mallocs
				if i == 1 {
					st := q.Stats()
					if st.DeltaFallbacks != 0 || st.DeltaApplied+st.DeltaBypasses != st.Evaluations {
						t.Fatalf("delta path: %d applied + %d bypassed of %d evaluations, %d fallbacks",
							st.DeltaApplied, st.DeltaBypasses, st.Evaluations, st.DeltaFallbacks)
					}
				}
			}
			full, delta := cols[0].Results, cols[1].Results
			if len(full) != len(delta) || len(full) != measure+1 {
				t.Fatalf("%d full results vs %d delta results, want %d", len(full), len(delta), measure+1)
			}
			for j := range full {
				if !full[j].At.Equal(delta[j].At) {
					t.Fatalf("result %d: instants %s vs %s", j, full[j].At, delta[j].At)
				}
				diff, err := eval.BagDifference(full[j].Table, delta[j].Table)
				if err != nil {
					t.Fatal(err)
				}
				if full[j].Table.Len() != delta[j].Table.Len() || diff.Len() != 0 {
					t.Fatalf("at %s: full %d rows, delta %d rows, %d full rows missing from delta",
						full[j].At, full[j].Table.Len(), delta[j].Table.Len(), diff.Len())
				}
			}
			if ratio == 0.01 {
				rel := float64(mallocs[1]) / float64(mallocs[0])
				t.Logf("1%% churn: delta/full mallocs per instant %.3f (bound %.3f)", rel, maxDeltaAllocRatio)
				if rel > maxDeltaAllocRatio {
					t.Fatalf("delta/full mallocs per instant %.3f > %.3f (%d vs %d over %d instants)",
						rel, maxDeltaAllocRatio, mallocs[1], mallocs[0], measure)
				}
			}
		})
	}
}

// BenchmarkEngineDeltaEval: one evaluation instant at a 1% delta ratio
// on a 5000-edge window, full re-evaluation vs the delta path. The
// measured loop replays the churn batches due after the window is
// full; b.N scales the number of instants.
func BenchmarkEngineDeltaEval(b *testing.B) {
	const rounds, perBatch = 100, 50 // 5000-edge window, 1% churn/instant
	slide := 5 * time.Second
	for _, mode := range []struct {
		name string
		opts []engine.Option
	}{
		{"full", nil},
		{"delta", []engine.Option{engine.WithDeltaEval(true)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			elems := churnStream(rounds, perBatch, b.N+1, slide)
			src := churnQuery(elems, rounds, slide)
			e := engine.New(mode.opts...)
			if _, err := e.RegisterSource(src, nil); err != nil {
				b.Fatal(err)
			}
			// Fill the window, then absorb the first (full Δ⁺) instant.
			for _, el := range elems[:rounds] {
				if err := e.Push(el.Graph, el.Time); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.AdvanceTo(elems[rounds].Time); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for _, el := range elems[rounds+1:] {
				if err := e.Push(el.Graph, el.Time); err != nil {
					b.Fatal(err)
				}
				if err := e.AdvanceTo(el.Time); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
