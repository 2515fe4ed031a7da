package workload

import (
	"sync"
	"testing"

	"seraph/internal/engine"
	"seraph/internal/eval"
	"seraph/internal/stream"
)

// Differential harness: the paper's three reference scenarios —
// micromobility fraud (variable-length trails), network anomalies
// (shortestPath), crime-scene suspects and stolen objects (flat POLE
// joins) — must run under delta-driven evaluation without a single
// fallback and with per-instant result bags identical to full
// evaluation. This is the tentpole acceptance gate for closing the
// delta-eval fallback classes.

func bagEqual(a, b *eval.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	counts := map[string]int{}
	for i := range a.Rows {
		counts[a.RowKey(i)]++
	}
	for i := range b.Rows {
		counts[b.RowKey(i)]--
		if counts[b.RowKey(i)] < 0 {
			return false
		}
	}
	return true
}

// runScenario feeds elems to an engine with the given queries
// registered and returns the per-query result streams and handles.
func runScenario(t *testing.T, srcs []string, elems []stream.Element, opts ...engine.Option) (map[string][]engine.Result, map[string]*engine.Query) {
	t.Helper()
	e := engine.New(opts...)
	results := map[string][]engine.Result{}
	queries := map[string]*engine.Query{}
	// Distinct queries' sinks run in parallel; the shared map needs a lock.
	var mu sync.Mutex
	for _, src := range srcs {
		src := src
		q, err := e.RegisterSource(src, func(r engine.Result) {
			mu.Lock()
			defer mu.Unlock()
			results[r.Query] = append(results[r.Query], r)
		})
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		queries[q.Name()] = q
	}
	for _, el := range elems {
		if err := e.Push(el.Graph, el.Time); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTo(el.Time); err != nil {
			t.Fatal(err)
		}
	}
	for name, q := range queries {
		if err := q.Err(); err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
	}
	return results, queries
}

// assertDeltaEquivalent runs the scenario twice — full and delta — and
// requires identical per-instant bags, zero fallbacks, and every
// instant answered incrementally.
func assertDeltaEquivalent(t *testing.T, label string, srcs []string, elems []stream.Element) {
	t.Helper()
	full, _ := runScenario(t, srcs, elems)
	delta, dq := runScenario(t, srcs, elems, engine.WithDeltaEval(true))
	for name, fr := range full {
		dr := delta[name]
		if len(fr) != len(dr) {
			t.Fatalf("%s %s: %d full results vs %d delta results", label, name, len(fr), len(dr))
		}
		for i := range fr {
			if !fr[i].At.Equal(dr[i].At) {
				t.Fatalf("%s %s result %d: instants %s vs %s", label, name, i, fr[i].At, dr[i].At)
			}
			if !bagEqual(fr[i].Table, dr[i].Table) {
				t.Fatalf("%s %s at %s:\nfull:  %v\ndelta: %v",
					label, name, fr[i].At, fr[i].Table.Rows, dr[i].Table.Rows)
			}
		}
	}
	for name, q := range dq {
		st := q.Stats()
		if st.DeltaFallbacks != 0 {
			t.Fatalf("%s %s: %d delta fallbacks, want 0", label, name, st.DeltaFallbacks)
		}
		if st.Evaluations == 0 || st.DeltaApplied+st.DeltaBypasses != st.Evaluations {
			t.Fatalf("%s %s: delta applied %d + bypassed %d of %d evaluations",
				label, name, st.DeltaApplied, st.DeltaBypasses, st.Evaluations)
		}
	}
}

// TestMicroMobilityDeltaEquivalence: the bounded student-trick query
// (variable-length trails, WITH pipeline, all() predicate) is fully
// maintained.
func TestMicroMobilityDeltaEquivalence(t *testing.T) {
	cfg := DefaultMicroMobilityConfig()
	cfg.FraudRatio = 0.5
	cfg.RentalsPerBatch = 10
	cfg.Stations = 60 // keep station degree low: trail fan-out is O(deg^hops)
	gen := NewMicroMobility(cfg)
	elems := gen.Batches(24)
	assertDeltaEquivalent(t, "micromobility", []string{StudentTrickQueryAt(cfg.Start)}, elems)
}

// TestNetworkAnomalyDeltaEquivalence: the shortestPath anomaly query is
// maintained by per-pair distance tracking, across healthy, partially
// failed, and recovered configurations.
func TestNetworkAnomalyDeltaEquivalence(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Racks = 6
	cfg.FailureRate = 0
	gen := NewNetwork(cfg)
	var elems []stream.Element
	rates := []float64{0, 0, 0.5, 0.5, 0, 0.7, 0}
	for _, rate := range rates {
		gen.cfg.FailureRate = rate
		elems = append(elems, gen.Next())
	}
	assertDeltaEquivalent(t, "netmon", []string{NetworkAnomalyQuery(cfg.Start)}, elems)
}

// TestPOLEDeltaEquivalence: suspects and stolen-objects (flat joins
// over the POLE model) are fully maintained, both queries on one
// engine.
func TestPOLEDeltaEquivalence(t *testing.T) {
	cfg := DefaultPOLEConfig()
	cfg.CrimeRate = 1.0
	gen := NewPOLE(cfg)
	elems := gen.Batches(12)
	assertDeltaEquivalent(t, "pole",
		[]string{SuspectsQuery(cfg.Start), StolenObjectsQuery(cfg.Start)}, elems)
}
