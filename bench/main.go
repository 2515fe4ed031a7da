// Command bench is the repository's benchmark: four serving workloads
// driven as a black box over loopback HTTP against a child
// seraph-server, with answers checked against from-scratch evaluation
// while they are timed. See README.md in this directory.
//
//	bash bench/run.sh --workload serve-mqo --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measured time per run: 60 % paced, 40 % closed loop at the calibrated rates")
		trace    = flag.Int("trace", 0, "1: record spans, scrape /metrics and run the layer probes; print the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run each workload this many times and write every run to -out")
		out      = flag.String("out", "", "also write every run of this invocation to this file (bench/out/result-<workload>-trace<0|1>.json is always written)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json; file.json#key picks one set out of a file of sets")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	var todo []*workloadSpec
	if *workload == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		todo = []*workloadSpec{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}

	// The child must not outlive the benchmark, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLive()
		os.Exit(130)
	}()
	// The in-process reference server logs every registration.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	env, err := prepare()
	if err != nil {
		fatal(err)
	}
	started := time.Now()
	var all []*result
	for _, w := range todo {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			res, err := runOnce(env, w, *seed, *seconds, *trace != 0)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(os.Stdout, res)
			runs = append(runs, res)
		}
		all = append(all, runs...)
		path := filepath.Join(env.outDir, fmt.Sprintf("result-%s-trace%d.json", w.name, *trace))
		if err := writeResults(path, env, runs, time.Since(started)); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeResults(*out, env, all, time.Since(started)); err != nil {
			fatal(err)
		}
	}
	// The contract's last line.
	last := all[len(all)-1]
	line, err := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// environment is what every run of one invocation shares.
type environment struct {
	root, bin, outDir string
	defined           map[string]bool
	buildS            float64
	dataFS            string // filesystem under the data directories
}

func prepare() (*environment, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	env := &environment{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	env.bin, env.buildS = bin, took.Seconds()
	if env.defined, err = probeFlags(bin); err != nil {
		return nil, err
	}
	if env.dataFS = fsType(filepath.Dir(bin)); env.dataFS == "tmpfs" {
		fmt.Fprintln(os.Stderr, "bench: warning: data directories are on tmpfs, where fsync is a no-op: wal.* timings and serve-durable numbers are unreliable")
	}
	return env, nil
}

func runOnce(env *environment, w *workloadSpec, seed int64, seconds float64, trace bool) (*result, error) {
	r, err := newRunner(runConfig{w: w, seed: seed, seconds: seconds, trace: trace,
		root: env.root, bin: env.bin, defined: env.defined, outDir: env.outDir})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := r.run()
	if err != nil {
		return nil, err
	}
	res.Detail["wall_s"] = time.Since(start).Seconds()
	if trace {
		if err := writeTrace(filepath.Join(env.outDir, "trace-"+w.name+".json"), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printResult lists every metric by name with its unit.
func printResult(out io.Writer, res *result) {
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%v: attempted=%d failed=%d correct=%v (%.1fs)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed, res.Correct, res.Detail["wall_s"])
	if res.FirstFail != "" {
		fmt.Fprintf(out, "   first failure: %s\n", res.FirstFail)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.Value == nil {
			fmt.Fprintf(out, "   %-34s %14s %s\n", n, "null", m.Unit)
		} else {
			fmt.Fprintf(out, "   %-34s %14.4f %s\n", n, *m.Value, m.Unit)
		}
	}
	if !res.Trace {
		fmt.Fprintf(out, "   (latency: %v samples, tail is p%.4g; load generator late p50 %.3f ms, p99 %.3f ms)\n",
			res.Detail["latency_samples"], res.Detail["latency_tail_percentile"], res.Detail["loadgen_late_ms_p50"], res.Detail["loadgen_late_ms_p99"])
	}
}

// resultFile is what -out holds and -compare reads.
type resultFile struct {
	Config map[string]any `json:"config"`
	Runs   []*result      `json:"runs"`
}

func writeResults(path string, env *environment, runs []*result, wall time.Duration) error {
	commit := "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "-C", env.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	rf := resultFile{Runs: runs, Config: map[string]any{
		"commit":        commit,
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"data_dir_fs":   env.dataFS,
		"build_s":       env.buildS,
		"flags_skipped": runs[0].Detail["flags_skipped"],
		"seed":          runs[0].Seed,
		"total_wall_s":  wall.Seconds(),
	}}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
