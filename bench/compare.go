package main

// compare.go is -compare: two result files (each holding -repeat runs
// per workload) side by side, one row per (metric, workload), judged
// with the bounds BENCHMARK.json fixed.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// loadResults reads a result file, or with "file#key" one set out of a
// file that maps names to result files (bench/BASELINE.json).
func loadResults(path string) (*resultFile, error) {
	file, key, keyed := strings.Cut(path, "#")
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	if keyed {
		var sets map[string]json.RawMessage
		if err := json.Unmarshal(b, &sets); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		var ok bool
		if b, ok = sets[key]; !ok {
			return nil, fmt.Errorf("%s holds no set %q", file, key)
		}
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &rf, nil
}

// series collects one metric's values per workload over a file's runs.
func collect(rf *resultFile, name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[name]; ok && m.Value != nil {
			out[r.Workload] = append(out[r.Workload], *m.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric on one workload. A change
// is resolved only when it is larger than both sides' own run-to-run
// spread; otherwise it is unresolved, never "unchanged". A resolved
// change is worse when it exceeds the bound, and better when it goes
// the right way.
func verdict(a, b []float64, better string, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	spread := math.Max(relIQR(a), relIQR(b))
	if ma == 0 {
		if mb == 0 {
			return "same"
		}
		return "unresolved"
	}
	change := (mb - ma) / math.Abs(ma) // positive: the value went up
	if better == "higher" {
		change = -change
	} // now positive: got worse
	switch {
	case spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	case math.Abs(change) <= spread:
		return "unresolved"
	case change < 0:
		return "better"
	}
	return "within-bound"
}

// relIQR is the inter-quartile range as a share of the median, the
// spread the driver bounds.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func compareFiles(out io.Writer, pathA, pathB string) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-26s %-14s %12s %12s %12s %8s %12s %12s %12s %8s  %s\n",
		"metric", "workload", "a.q1", "a.median", "a.q3", "a.iqr", "b.q1", "b.median", "b.q3", "b.iqr", "verdict")
	worse := 0
	for _, ms := range spec.EndToEnd {
		va, vb := collect(a, ms.Name), collect(b, ms.Name)
		var names []string
		for w := range va {
			if len(vb[w]) > 0 {
				names = append(names, w)
			}
		}
		sort.Strings(names)
		for _, w := range names {
			a1, a2, a3 := quartiles(va[w])
			b1, b2, b3 := quartiles(vb[w])
			v := verdict(va[w], vb[w], ms.Better, ms.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-26s %-14s %12.4f %12.4f %12.4f %7.1f%% %12.4f %12.4f %12.4f %7.1f%%  %s\n",
				ms.Name, w, a1, a2, a3, 100*relIQR(va[w]), b1, b2, b3, 100*relIQR(vb[w]), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are worse by more than their bound", worse)
	}
	return nil
}
