package main

// workloads.go is the frozen definition of the four serving workloads.
// They differ only in generated inputs and durability flags; every one
// starts the server with -delta-eval -mqo. The rates were calibrated
// once on the seed commit (2 cores) and are constants on purpose: a
// rate recomputed per run or per commit would hide a regression.

import (
	"math/rand"
	"time"

	"seraph/internal/stream"
)

// workloadSpec is one workload; BENCHMARK.json and README.md say why each
// exists.
type workloadSpec struct {
	name string

	// durable workloads run with -data-dir and this -fsync policy.
	durable bool
	fsync   string

	slide       time.Duration
	widthSlides int // widest window, in slides: warm-up length and restart replay length
	perPost     int // events per POST /events

	// pacedEPS is the open-loop rate, about 40 % of the seed's closed-loop
	// events_per_s. closedEPS sizes the closed-loop phase as a fixed
	// event count (0.4 x seconds x closedEPS), so both commits of a
	// comparison do identical work; it is not a rate limit.
	pacedEPS  float64
	closedEPS float64

	// A result visible later than this after its POST was due counts as
	// failed, as does one that never shows.
	latencyLimit time.Duration

	// repeats is how many set-ups and how many kill -9 / restart cycles
	// one run measures; setup_s and restart_s are their medians. Cheap
	// ones (tens of milliseconds, mostly process start) are repeated more.
	repeats int

	// phaseCap, when set, bounds the events of the paced and of the
	// closed phase, whatever --seconds says.
	phaseCap int

	queries func() []querySpec
	gen     func(seed int64, n int) []stream.Element
}

// commonFlags is what every workload starts the server with:
// -delta-eval -mqo, the "one pipeline" configuration, and a bound on
// the per-query result history, which nothing reachable over HTTP reads
// and which otherwise grows without limit (serve-mqo reached 7.5 GB
// resident within a minute on the seed commit). A flag the binary no
// longer defines is dropped and recorded (config.flags_skipped), so a
// commit that makes it the only behaviour keeps running.
var commonFlags = [][]string{{"-delta-eval"}, {"-mqo"}, {"-history-retention", "16"}}

var workloads = []workloadSpec{
	{
		name:    "serve-durable",
		durable: true, fsync: "always",
		slide: durableSlide, widthSlides: 12, perPost: 8,
		pacedEPS: 480, closedEPS: 1200,
		latencyLimit: 2 * time.Second, repeats: 7,
		queries: durableQueries, gen: genDurable,
	},
	{
		name:  "serve-mqo",
		slide: mqoSlide, widthSlides: 60, perPost: 1,
		pacedEPS: 66, closedEPS: 165,
		latencyLimit: 2 * time.Second, repeats: 3,
		// 60 warm-up + 940 < 1024: no server process sees its result rings
		// wrap. On the seed a wrapped ring copies itself on every result,
		// which with 120 rings would bury the evaluation cost this
		// workload exists to show; serve-durable and serve-results run
		// thousands of instants per process and do measure the wrapped ring.
		phaseCap: 940,
		queries:  mqoQueries, gen: genMQO,
	},
	{
		name:  "serve-churn",
		slide: churnSlide, widthSlides: 2, perPost: 1,
		pacedEPS: 26, closedEPS: 65,
		latencyLimit: 2 * time.Second, repeats: 7,
		queries: churnQueries, gen: genChurn,
	},
	{
		name:    "serve-results",
		durable: true, fsync: "interval",
		slide: resultsSlide, widthSlides: resultsWidth, perPost: 32,
		pacedEPS: 100, closedEPS: 250,
		latencyLimit: 3 * time.Second, repeats: 5,
		queries: resultsQueries, gen: genResults,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	maxProbes = 4 // queries polled during the timed phases

	// Durable restarts replay a log suffix of exactly this many events:
	// the server is first restarted gracefully (final checkpoint, empty
	// suffix), then fed this many events, fewer than the checkpoint
	// cadence of 256, before the first kill. Replay speed is the noisiest
	// part of a restart (it ran at 5-10 ms an event on serve-results), so
	// the suffix is kept short enough that process start and checkpoint
	// load, which repeat well, are about half of restart_s.
	restartSuffix = 64

	pollEvery = 2 * time.Millisecond // the stated latency resolution

	// The generator's own p99 lateness may reach two poll intervals
	// before a paced run is called void: with the server, the poster and
	// the poller on two cores, the kernel holds a due POST back 1-3 ms
	// about once in a hundred times.
	lateLimitMS = 4.0

	// Oracle sample: this many seeded segments of consecutive instants
	// on the probe queries, plus the run's last segment on every query.
	oracleSegments   = 3
	oracleSegmentLen = 6
)

// plan lays the phases out over one generated stream. Indices are event
// numbers; event i closes instant i.
type plan struct {
	warm    int // [0, warm): set-up warm-up, fills the widest window
	paced   int // [warm, warm+paced)
	suffix  int // durable only: events posted after the graceful restart
	restart int // one fresh event per kill -9 cycle
	closed  int
	total   int

	pacedStart, suffixStart, restartStart, closedStart int
}

func makePlan(w *workloadSpec, seconds float64) plan {
	roundUp := func(n int) int { // whole POSTs, at least two: a traced run splits the closed phase in halves
		if n < 2*w.perPost {
			n = 2 * w.perPost
		}
		return (n + w.perPost - 1) / w.perPost * w.perPost
	}
	p := plan{
		warm:    w.widthSlides,
		paced:   roundUp(int(0.6 * seconds * w.pacedEPS)),
		restart: w.repeats,
		closed:  roundUp(int(0.4 * seconds * w.closedEPS)),
	}
	if w.phaseCap > 0 {
		p.paced, p.closed = min(p.paced, w.phaseCap), min(p.closed, w.phaseCap)
	}
	if w.durable {
		p.suffix = restartSuffix
	}
	p.pacedStart = p.warm
	p.suffixStart = p.pacedStart + p.paced
	p.restartStart = p.suffixStart + p.suffix
	p.closedStart = p.restartStart + p.restart
	p.total = p.closedStart + p.closed
	return p
}

// pickProbes chooses the polled queries from the seed.
func pickProbes(qs []querySpec, seed int64) []int {
	idx := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(qs))
	if len(idx) > maxProbes {
		idx = idx[:maxProbes]
	}
	return idx
}
