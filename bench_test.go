package seraph

// Benchmarks mirroring the experiment suite of DESIGN.md (B1–B9) as
// testing.B micro-benchmarks, plus a benchmark of the paper's running
// example itself. They provide ns/op and allocation profiles via
// `go test -bench=. -benchmem`; the end-to-end serving benchmark is
// bench/run.sh.

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"seraph/internal/baseline"
	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/graphstore"
	"seraph/internal/parser"
	"seraph/internal/stream"
	"seraph/internal/value"
	"seraph/internal/workload"
)

// mmStream builds a deterministic micro-mobility stream sized to keep
// station degree (and hence variable-length fan-out) moderate.
func mmStream(batches, perBatch int) []stream.Element {
	cfg := workload.DefaultMicroMobilityConfig()
	cfg.RentalsPerBatch = perBatch
	cfg.Stations = 10 + perBatch*3
	cfg.Vehicles = perBatch * 20
	cfg.Users = perBatch * 10
	return workload.NewMicroMobility(cfg).Batches(batches)
}

// replay pushes elems through an engine registered with src.
func replay(b *testing.B, src string, elems []stream.Element) int {
	b.Helper()
	e := engine.New()
	rows := 0
	if _, err := e.RegisterSource(src, func(r engine.Result) { rows += r.Table.Len() }); err != nil {
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
	return rows
}

func trickSrc(start time.Time, op string, width, slide time.Duration) string {
	return fmt.Sprintf(`
REGISTER QUERY trick STARTING AT %s
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station),
        q = (b)-[:returnedAt|rentedAt*3..4]-(o:Station)
  WITHIN %s
  WITH r, s, q, relationships(q) AS rels,
       [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops
  WHERE all(e IN rels WHERE
        e.user_id = r.user_id AND e.val_time > r.val_time AND
        (e.duration IS NULL OR e.duration < 20))
  EMIT r.user_id, s.id, r.val_time, hops
  %s EVERY %s
}`, start.Format("2006-01-02T15:04:05"), value.FormatDuration(width), op, value.FormatDuration(slide))
}

// BenchmarkPaperRunningExample replays the exact Figure 1 stream
// through the Listing 5 query (Tables 5/6 reproduction).
func BenchmarkPaperRunningExample(b *testing.B) {
	elems := workload.Figure1Stream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := replay(b, workload.StudentTrickQuery, elems)
		if rows != 2 {
			b.Fatalf("rows = %d, want 2", rows)
		}
	}
}

// BenchmarkThroughputRate (B1): end-to-end engine cost at increasing
// event rates.
func BenchmarkThroughputRate(b *testing.B) {
	for _, perBatch := range []int{5, 20, 80} {
		elems := mmStream(24, perBatch)
		edges := 0
		for _, e := range elems {
			edges += e.Graph.NumRels()
		}
		src := trickSrc(elems[0].Time, "ON ENTERING", time.Hour, 5*time.Minute)
		b.Run(fmt.Sprintf("rentalsPerBatch=%d", perBatch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
			b.ReportMetric(float64(edges*b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkWindowSize (B2): evaluation cost vs WITHIN width.
func BenchmarkWindowSize(b *testing.B) {
	elems := mmStream(24, 20)
	for _, width := range []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour} {
		src := trickSrc(elems[0].Time, "ON ENTERING", width, 5*time.Minute)
		b.Run(value.FormatDuration(width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
		})
	}
}

// BenchmarkSlide (B3): evaluation cost vs EVERY slide (evaluation
// frequency).
func BenchmarkSlide(b *testing.B) {
	elems := mmStream(24, 20)
	for _, slide := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute} {
		src := trickSrc(elems[0].Time, "ON ENTERING", time.Hour, slide)
		b.Run(value.FormatDuration(slide), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
		})
	}
}

// BenchmarkEmission (B4): SNAPSHOT vs ON ENTERING vs ON EXITING.
func BenchmarkEmission(b *testing.B) {
	elems := mmStream(24, 20)
	for _, op := range []string{"SNAPSHOT", "ON ENTERING", "ON EXITING"} {
		src := trickSrc(elems[0].Time, op, time.Hour, 5*time.Minute)
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
		})
	}
}

// BenchmarkBaselineVsSeraph (B5): the Section 3.3 comparison. The
// Seraph engine's per-evaluation cost is bounded by window content; the
// Cypher-only poller scans the ever-growing merged history.
func BenchmarkBaselineVsSeraph(b *testing.B) {
	for _, history := range []int{24, 96, 288} { // 2h, 8h, 24h of batches
		elems := mmStream(history, 20)
		b.Run(fmt.Sprintf("seraph/history=%d", history), func(b *testing.B) {
			src := fmt.Sprintf(`
REGISTER QUERY rentals STARTING AT %s
{
  MATCH (bk:Bike)-[r:rentedAt]->(s:Station)
  WITHIN PT1H
  EMIT r.user_id AS user, count(*) AS rentals
  SNAPSHOT EVERY PT5M
}`, elems[0].Time.Format("2006-01-02T15:04:05"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
		})
		b.Run(fmt.Sprintf("baseline/history=%d", history), func(b *testing.B) {
			q := `
WITH datetime() - duration('PT1H') AS win_start, datetime() AS win_end
MATCH (bk:Bike)-[r:rentedAt]->(s:Station)
WHERE win_start <= r.val_time <= win_end
RETURN r.user_id AS user, count(*) AS rentals`
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := baseline.New(q, elems[0].Time, 5*time.Minute, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, el := range elems {
					if err := p.Ingest(el.Graph, el.Time); err != nil {
						b.Fatal(err)
					}
					if err := p.AdvanceTo(el.Time); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkVarLength (B6): variable-length matching cost vs hop bound
// over one window's worth of data.
func BenchmarkVarLength(b *testing.B) {
	elems := mmStream(12, 20)
	g, err := stream.Snapshot(elems)
	if err != nil {
		b.Fatal(err)
	}
	store := graphstore.FromGraph(g)
	for _, maxHops := range []int{1, 3, 5} {
		q, err := parser.ParseQuery(fmt.Sprintf(
			`MATCH q = (bk:Bike)-[:returnedAt|rentedAt*1..%d]-(o:Station) RETURN count(*) AS n`, maxHops))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("maxHops=%d", maxHops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalQuery(&eval.Ctx{Store: store}, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot (B7): snapshot graph construction (union under
// UNA) vs substream size.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		elems := workload.NewMicroMobility(workload.DefaultMicroMobilityConfig()).Batches(n)
		b.Run(fmt.Sprintf("elements=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stream.Snapshot(elems); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShortestPath (B8): the network-monitoring query over
// growing topologies.
func BenchmarkShortestPath(b *testing.B) {
	for _, racks := range []int{10, 50, 100} {
		cfg := workload.DefaultNetworkConfig()
		cfg.Racks = racks
		elems := workload.NewNetwork(cfg).Batches(2)
		src := workload.NetworkAnomalyQuery(cfg.Start)
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, src, elems)
			}
		})
	}
}

// BenchmarkConcurrentQueries (B9): cost of hosting many registered
// queries on one engine.
func BenchmarkConcurrentQueries(b *testing.B) {
	elems := mmStream(12, 20)
	for _, nq := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := engine.New()
				for j := 0; j < nq; j++ {
					src := fmt.Sprintf(`
REGISTER QUERY q%d STARTING AT %s
{
  MATCH (bk:Bike)-[r:rentedAt]->(s:Station)
  WITHIN PT30M
  WHERE r.user_id %% %d = %d
  EMIT r.user_id, s.id
  ON ENTERING EVERY PT5M
}`, j, elems[0].Time.Format("2006-01-02T15:04:05"), nq, j)
					if _, err := e.RegisterSource(src, nil); err != nil {
						b.Fatal(err)
					}
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

// BenchmarkAdvanceParallelQueries (B12): the parallel multi-query
// evaluation scheduler. Each registered query filters a disjoint user
// slice of the same micro-mobility stream; with parallelism 1 the
// engine evaluates them sequentially in global timestamp order, with
// parallelism GOMAXPROCS distinct queries evaluate concurrently.
// Per-sink result sequences are byte-identical at every setting (see
// TestParallelismDeterminism); on multi-core hardware throughput at 16
// queries should be ≥ 2× the sequential run.
func BenchmarkAdvanceParallelQueries(b *testing.B) {
	elems := mmStream(12, 20)
	pars := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		pars = append(pars, g)
	}
	// SERAPH_METRICS=off disables instrumentation so CI can smoke-check
	// the metrics overhead (run once with, once without).
	opts := []engine.Option{}
	if os.Getenv("SERAPH_METRICS") == "off" {
		opts = append(opts, engine.WithMetrics(nil))
	}
	for _, nq := range []int{1, 4, 16, 64} {
		for _, par := range pars {
			b.Run(fmt.Sprintf("queries=%d/parallelism=%d", nq, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := engine.New(append([]engine.Option{engine.WithParallelism(par)}, opts...)...)
					for j := 0; j < nq; j++ {
						src := fmt.Sprintf(`
REGISTER QUERY q%d STARTING AT %s
{
  MATCH (bk:Bike)-[r:rentedAt]->(s:Station)
  WITHIN PT30M
  WHERE r.user_id %% %d = %d
  EMIT r.user_id, s.id
  ON ENTERING EVERY PT5M
}`, j, elems[0].Time.Format("2006-01-02T15:04:05"), nq, j)
						if _, err := e.RegisterSource(src, nil); err != nil {
							b.Fatal(err)
						}
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
				// One evaluation per query per 5-minute batch.
				b.ReportMetric(float64(nq*len(elems)*b.N)/b.Elapsed().Seconds(), "evals/s")
			})
		}
	}
}

// BenchmarkSnapshotCacheAblation (B10): the Section 6 re-execution
// avoidance optimization, on a sparse stream where most windows repeat.
func BenchmarkSnapshotCacheAblation(b *testing.B) {
	// One event per hour, evaluated every 5 minutes: 11 of 12 windows
	// have unchanged content.
	cfg := workload.DefaultMicroMobilityConfig()
	cfg.BatchEvery = time.Hour
	elems := workload.NewMicroMobility(cfg).Batches(12)
	src := trickSrc(elems[0].Time, "ON ENTERING", time.Hour, 5*time.Minute)
	for _, cache := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.WithSnapshotCache(cache))
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

// BenchmarkOneTimeQueries: the embedded GraphDB's one-time query path
// (parse + plan + evaluate).
func BenchmarkOneTimeQueries(b *testing.B) {
	elems := mmStream(12, 20)
	g, err := stream.Snapshot(elems)
	if err != nil {
		b.Fatal(err)
	}
	store := graphstore.FromGraph(g)
	queries := map[string]string{
		"node-scan":   `MATCH (s:Station) RETURN count(*) AS n`,
		"expand":      `MATCH (bk:Bike)-[r:rentedAt]->(s:Station) RETURN count(*) AS n`,
		"aggregation": `MATCH (bk:Bike)-[r:rentedAt]->(s:Station) RETURN s.id AS sid, count(*) AS n, avg(r.user_id) AS au`,
		"order-limit": `MATCH (bk:Bike)-[r]->(s:Station) RETURN bk.id AS b ORDER BY b LIMIT 10`,
	}
	for name, src := range queries {
		q, err := parser.ParseQuery(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalQuery(&eval.Ctx{Store: store}, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParser: query text → AST.
func BenchmarkParser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseRegistration(workload.StudentTrickQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalSnapshots (B11): rebuild-per-evaluation vs
// refcounted rolling maintenance, on a heavily overlapping window
// (1h WITHIN, 1m EVERY → ~98% overlap between consecutive windows).
func BenchmarkIncrementalSnapshots(b *testing.B) {
	elems := mmStream(24, 20)
	src := fmt.Sprintf(`
REGISTER QUERY rentals STARTING AT %s
{
  MATCH (bk:Bike)-[r:rentedAt]->(s:Station)
  WITHIN PT1H
  EMIT r.user_id AS user, count(*) AS rentals
  SNAPSHOT EVERY PT1M
}`, elems[0].Time.Format("2006-01-02T15:04:05"))
	for _, incremental := range []bool{false, true} {
		b.Run(fmt.Sprintf("incremental=%v", incremental), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.WithIncrementalSnapshots(incremental))
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
