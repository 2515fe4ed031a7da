package main

// probes.go replays the workload's own generated inputs through single
// layers, in-process and in isolation, for the traced run's per-layer
// numbers. Each probe calls the layer's public entry point and nothing
// of the engine's options, so they keep compiling while the evaluation
// pipeline is reworked.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seraph/internal/graphstore"
	"seraph/internal/ingest"
	"seraph/internal/parser"
	"seraph/internal/pg"
	"seraph/internal/queue"
	"seraph/internal/wal"
)

// probeSample bounds how many events each probe replays; with
// -fsync always an append costs milliseconds.
const probeSample = 200

type layerProbes struct {
	parseUSp50 float64

	decodeUSp50   float64
	decodeUSperKB float64
	decodeAllocs  float64
	mergeUSp50    float64
	mergeUSperKB  float64
	appendUSp50   float64 // durable workloads only, else 0
	appendUSp99   float64
	produceUSp50  float64
}

// timeEach runs fn once per item and returns the durations in µs.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t)) / 1e3
	}
	return out, nil
}

func runProbes(w *workloadSpec, qs []querySpec, in *inputs, from int, scratch string) (layerProbes, error) {
	var lp layerProbes

	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.text(streamStart)
	}
	var parse []float64
	for rep := 0; rep < 3; rep++ { // few queries on some workloads: repeat for a stable median
		d, err := timeEach(len(texts), func(i int) error {
			_, err := parser.ParseRegistration(texts[i])
			return err
		})
		if err != nil {
			return lp, fmt.Errorf("probe parser: %w", err)
		}
		parse = append(parse, d...)
	}
	lp.parseUSp50 = median(parse)

	// Steady-state events: the measured stream after the warm-up.
	lines := in.lines[from:]
	if len(lines) > probeSample {
		lines = lines[:probeSample]
	}
	n := len(lines)
	var bytes float64
	for _, l := range lines {
		bytes += float64(len(l))
	}
	kb := bytes / 1024

	graphs := make([]*pg.Graph, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dec, err := timeEach(n, func(i int) error {
		g, _, err := ingest.Decode(lines[i])
		graphs[i] = g
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return lp, fmt.Errorf("probe ingest.Decode: %w", err)
	}
	lp.decodeUSp50 = median(dec)
	lp.decodeUSperKB = mean(dec) * float64(n) / kb
	lp.decodeAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	store := graphstore.New()
	mrg, err := timeEach(n, func(i int) error { return ingest.MergeInto(store, graphs[i]) })
	if err != nil {
		return lp, fmt.Errorf("probe ingest.MergeInto: %w", err)
	}
	lp.mergeUSp50 = median(mrg)
	lp.mergeUSperKB = mean(mrg) * float64(n) / kb

	if !w.durable {
		return lp, nil
	}
	policy, err := wal.ParsePolicy(w.fsync)
	if err != nil {
		return lp, err
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return lp, err
	}
	defer os.RemoveAll(dir)

	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Fsync: policy})
	if err != nil {
		return lp, fmt.Errorf("probe wal.Open: %w", err)
	}
	app, err := timeEach(n, func(i int) error {
		_, err := log.Append(lines[i])
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return lp, fmt.Errorf("probe wal.Append: %w", err)
	}
	sorted := sortedCopy(app)
	lp.appendUSp50, lp.appendUSp99 = quantile(sorted, 0.5), quantile(sorted, 0.99)

	b, err := queue.OpenDurable(filepath.Join(dir, "queue"), queue.DurableConfig{Fsync: policy})
	if err != nil {
		return lp, fmt.Errorf("probe queue.OpenDurable: %w", err)
	}
	if err := b.CreateTopic("events", 1); err != nil {
		return lp, fmt.Errorf("probe queue.CreateTopic: %w", err)
	}
	prod, err := timeEach(n, func(i int) error {
		_, err := b.Produce("events", "", lines[i], in.elems[from+i].Time)
		return err
	})
	if cerr := b.CloseDurable(); err == nil {
		err = cerr
	}
	if err != nil {
		return lp, fmt.Errorf("probe queue.Produce: %w", err)
	}
	lp.produceUSp50 = median(prod)
	return lp, nil
}
