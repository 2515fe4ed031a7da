package engine

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"seraph/internal/eval"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// Hot-path regression tests for the batched columnar delta evaluator:
// the churn-ratio crossover guard (delta eval must never lose to full
// evaluation, even at 50% window churn) and the steady-state
// allocation budget of a delta round.

// churnEvent contributes e fresh edges, each with two never-reused
// endpoint nodes, so every window slide replaces a full slide's worth
// of elements — sustained structural churn with no entity overlap.
func churnEvent(next *int64, e int) *pg.Graph {
	g := pg.New()
	for j := 0; j < e; j++ {
		a, b := *next, *next+1
		rel := *next + 2
		*next += 3
		g.AddNode(&value.Node{ID: a, Labels: []string{"P"}, Props: map[string]value.Value{"k": value.NewInt(a % 7)}})
		g.AddNode(&value.Node{ID: b, Labels: []string{"P"}, Props: map[string]value.Value{"k": value.NewInt(b % 7)}})
		_ = g.AddRel(&value.Relationship{ID: rel, StartID: a, EndID: b, Type: "F",
			Props: map[string]value.Value{"v": value.NewInt(rel % 5)}})
	}
	return g
}

// TestDeltaBypassHighChurn: at ~40-50% per-round churn the guard must
// answer rounds with single full evaluations (DeltaBypasses), produce
// bags identical to the classic engine, and keep the delta engine's
// evaluation time in the same ballpark as full evaluation — the
// crossover regression this PR exists to prevent is delta mode running
// a multiple of full evaluation's cost at high churn.
func TestDeltaBypassHighChurn(t *testing.T) {
	const edges, steps = 40, 30
	src := `
REGISTER QUERY hc STARTING AT 2026-07-06T10:00:00
{
  MATCH (a:P)-[r:F]->(b:P)
  WITHIN PT10S
  EMIT a.k AS ak, b.k AS bk, r.v AS v
  SNAPSHOT EVERY PT2S
}`
	run := func(opts ...Option) (*Collector, *Query, time.Duration) {
		e := New(opts...)
		col := &Collector{}
		q, err := e.RegisterSource(src, col.Sink())
		if err != nil {
			t.Fatal(err)
		}
		var next int64 = 1
		start := time.Now()
		for i := 0; i < steps; i++ {
			at := base.Add(time.Duration(i*2) * time.Second)
			if err := e.Push(churnEvent(&next, edges), at); err != nil {
				t.Fatal(err)
			}
			if err := e.AdvanceTo(at); err != nil {
				t.Fatal(err)
			}
		}
		return col, q, time.Since(start)
	}

	full, _, fullDur := run()
	delta, dq, deltaDur := run(WithDeltaEval(true))

	if len(full.Results) == 0 || len(full.Results) != len(delta.Results) {
		t.Fatalf("results misaligned: full %d, delta %d", len(full.Results), len(delta.Results))
	}
	for i := range full.Results {
		fr, dr := full.Results[i], delta.Results[i]
		if !fr.At.Equal(dr.At) {
			t.Fatalf("result %d: instants %s vs %s", i, fr.At, dr.At)
		}
		if !sameBag(fr.Table, dr.Table) {
			t.Fatalf("at %s:\nfull:  %v\ndelta: %v", fr.At, fr.Table.Rows, dr.Table.Rows)
		}
	}
	st := dq.Stats()
	if st.DeltaFallbacks != 0 {
		t.Fatalf("unexpected fallback")
	}
	if st.DeltaBypasses == 0 {
		t.Fatalf("no bypasses at ~40%% churn (applied %d of %d)", st.DeltaApplied, st.Evaluations)
	}
	if st.DeltaApplied == 0 {
		t.Fatalf("birth round must stay on the delta path")
	}
	if st.DeltaApplied+st.DeltaBypasses != st.Evaluations {
		t.Fatalf("applied %d + bypassed %d != %d evaluations",
			st.DeltaApplied, st.DeltaBypasses, st.Evaluations)
	}
	t.Logf("full %v, delta %v (applied %d, bypassed %d of %d)",
		fullDur, deltaDur, st.DeltaApplied, st.DeltaBypasses, st.Evaluations)
	// Generous 3x tolerance absorbs scheduler and timer noise on loaded
	// CI machines; the pre-guard failure mode this catches is delta mode
	// degrading to per-seed search over half the window every round.
	if deltaDur > 3*fullDur+50*time.Millisecond {
		t.Fatalf("delta eval took %v at 50%% churn vs %v full — crossover guard regressed", deltaDur, fullDur)
	}
}

// TestDeltaApplyAllocs: the steady-state allocation budget of one
// low-churn delta round. With the batched matcher scratch, the reused
// round delta, and the canonical-key sharing in place, a one-edge
// churn round costs a bounded number of allocations regardless of how
// many rounds have run; regressing to per-round maps or per-row key
// strings multiplies this by the window size.
func TestDeltaApplyAllocs(t *testing.T) {
	src := `
REGISTER QUERY sa STARTING AT 2026-07-06T10:00:00
{
  MATCH (a:P)-[r:F]->(b:P)
  WITHIN PT10S
  EMIT a.k AS ak, b.k AS bk
  ON ENTERING EVERY PT1S
}`
	e := New(WithDeltaEval(true), WithMetrics(nil))
	col := &Collector{}
	q, err := e.RegisterSource(src, col.Sink())
	if err != nil {
		t.Fatal(err)
	}
	var next int64 = 1
	step := func(i int) {
		at := base.Add(time.Duration(i) * time.Second)
		if err := e.Push(churnEvent(&next, 1), at); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ { // warm: fill the window, size the scratch
		step(i)
	}
	const rounds = 100
	warm := q.Stats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 30; i < 30+rounds; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / rounds
	st := q.Stats()
	// The window-filling warmup legitimately bypasses (churn ratio is
	// high while the window is small); the measured rounds must all be
	// pure delta maintenance.
	if st.DeltaFallbacks != 0 || st.DeltaApplied-warm.DeltaApplied != rounds {
		t.Fatalf("measured rounds not on the pure delta path: warm %+v, after %+v", warm, st)
	}
	const budget = 400
	if perRound > budget {
		t.Fatalf("steady-state delta round allocates %.1f, budget %d — per-round or per-row allocation crept back in", perRound, budget)
	}
}

// TestAnnotateAllocs: annotating a one-row result allocates about that
// row, not a 64-row chunk the retained result would pin.
func TestAnnotateAllocs(t *testing.T) {
	tab := &eval.Table{Cols: []string{"x"}, Rows: [][]value.Value{{value.NewInt(1)}}}
	iv := stream.Interval{Start: base, End: base.Add(time.Minute)}
	const n = 100
	var sink *eval.Table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = annotate(tab, iv)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / n
	rowSize := uint64(len(sink.Cols)) * uint64(unsafe.Sizeof(value.Value{}))
	if perCall >= 2*rowSize {
		t.Fatalf("annotate allocates %d B for one %d B row", perCall, rowSize)
	}
}
