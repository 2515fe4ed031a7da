package main

import (
	"io"
	"log/slog"
	"math"
	"testing"
)

// TestSmoke runs every workload for two seconds, untraced and traced,
// against a freshly built server and checks the contract of
// BENCHMARK.json: every named metric is emitted, finite and tagged with
// the declared unit, and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server: skipped with -short")
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	env, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killLive)
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name, want := w.name+"/end_to_end", spec.EndToEnd
			if traced {
				name, want = w.name+"/per_layer", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runOnce(env, w, 1, 2, traced)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Errorf("%d of %d failed: %s", res.Failed, res.Attempted, res.FirstFail)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, ms := range want {
					m, ok := res.Metrics[ms.Name]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", ms.Name)
					case m.Value == nil:
						t.Errorf("%s: null on the commit that defines it", ms.Name)
					case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
						t.Errorf("%s: %v is not finite", ms.Name, *m.Value)
					case m.Unit != ms.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
					}
				}
			})
		}
	}
}
