// Package engine implements Seraph's continuous query engine: a
// registry of REGISTER QUERY statements evaluated under snapshot
// reducibility (Definition 5.8). The engine is driven by a virtual
// clock: stream elements are pushed in timestamp order and AdvanceTo
// triggers every due evaluation time instant (Definition 5.10). At each
// instant the engine materializes the snapshot graph of the active
// substream (Definitions 5.5/5.11), runs the compiled Cypher body on
// it, applies the stream operator (SNAPSHOT / ON ENTERING / ON
// EXITING), annotates the result with the window bounds, and emits a
// time-annotated table to the query's sink.
package engine

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"seraph/internal/ast"
	"seraph/internal/eval"
	"seraph/internal/graphstore"
	"seraph/internal/metrics"
	"seraph/internal/parser"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
	"seraph/internal/window"
)

// Engine hosts registered continuous queries and drives their
// evaluation. It is safe for concurrent use.
//
// Concurrency model (see DESIGN.md "Concurrency model"): the engine
// lock e.mu guards only the registry map and the virtual clock; every
// Query carries its own lock for its mutable evaluation state. Sinks
// are always invoked with no engine- or query-state lock held, so a
// sink may safely call back into the engine (Push, Queries, Stats,
// Register, Deregister, even AdvanceTo). The lock acquisition order is
// q.evalMu → e.mu → q.mu; no code path takes e.mu while holding q.mu.
type Engine struct {
	mu      sync.Mutex
	queries map[string]*Query
	bounds  window.Bounds
	now     time.Time

	// optsSet records which semantics-bearing options were explicitly
	// supplied, so Restore can reject a caller whose explicit
	// configuration contradicts the checkpoint instead of silently
	// restoring under different semantics (see checkConfigConflict).
	optsSet struct {
		bounds, cache, incremental, delta, shared, hier bool
	}

	// parallelism bounds how many queries AdvanceTo evaluates
	// concurrently; <= 0 means runtime.GOMAXPROCS(0). See
	// WithParallelism in scheduler.go.
	parallelism int

	// cacheSnapshots enables reuse of an evaluation's result when the
	// active substream is identical to the previous evaluation's (the
	// "avoidable re-executions on equal window contents" optimization
	// the paper sketches in Section 6).
	cacheSnapshots bool

	// static, when non-nil, is a background property graph unioned
	// into every snapshot graph — the paper's future-work item (iii):
	// "incorporate static graph data within the continuous
	// computation".
	static *pg.Graph

	// incremental switches snapshot maintenance from rebuild-per-
	// evaluation to a rolling graph that applies only the
	// elements entering and leaving each window (the paper's Section 6
	// "efficient window maintenance" optimization).
	incremental bool

	// deltaEval maintains each query's result bag under the window
	// delta instead of re-evaluating the body per instant (see
	// deltaeval.go and WithDeltaEval). Implies incremental.
	deltaEval bool

	// sharedEval enables multi-query optimization: queries with equal
	// canonical fingerprints share one pattern evaluation per instant
	// (see sharedeval.go and WithSharedEval). groups holds the joinable
	// generation per group key, groupList every live group (both guarded
	// by mu); groupSeq numbers chassis names.
	sharedEval bool
	groups     map[string]*sharedGroup
	groupList  []*sharedGroup
	groupSeq   int

	// sharedHier layers the sharing hierarchy over sharedEval:
	// cross-window-width super-groups, subpattern seeding between
	// groups, and late-join merging into running generations (see
	// hierarchy.go and WithSharedHierarchy). groupGen numbers the
	// generations spawned under each group key.
	sharedHier bool
	groupGen   map[string]int

	// deltaBypass is the churn-ratio crossover guard for delta
	// evaluation: when a round's delta exceeds this fraction of the
	// window, the round is answered by one full evaluation instead of
	// per-seed anchored searches (seraph_delta_bypass_total counts
	// these). Hysteresis re-enters delta mode at half the ratio.
	// <= 0 disables the guard. See WithDeltaBypassRatio.
	deltaBypass float64

	// metrics is the instrumentation registry; nil disables all
	// recording (see WithMetrics and metrics.go). metricsSet records
	// whether WithMetrics was supplied, so New can default to a fresh
	// registry without clobbering an explicit nil.
	metrics    *metrics.Registry
	metricsSet bool
	sched      schedMetrics

	// logger, when non-nil, receives structured evaluation events
	// (query name, ω, window bounds as attrs). Libraries stay quiet by
	// default; servers opt in with WithLogger.
	logger *slog.Logger

	// historyRetention bounds each query's materialized time-varying
	// table; 0 keeps unlimited history (Definition 5.7 semantics).
	historyRetention int

	// maxInFlight bounds the evaluation backlog admitted through
	// Push/PushStream; <= 0 disables admission control. evalDeadline
	// enables deadline shedding of stale evaluation instants; wallClock
	// (default time.Now) is its time source. See overload.go.
	maxInFlight  int
	evalDeadline time.Duration
	wallClock    func() time.Time

	// scanMatcher forces the naive scan-based pattern matcher (no
	// property indexes, no predicate pushdown, no typed adjacency, no
	// cost-based part ordering). Ablation baseline for benchmarks.
	scanMatcher bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithBounds selects the window bounds mode (default
// window.BoundsPaperExample; see DESIGN.md).
func WithBounds(b window.Bounds) Option {
	return func(e *Engine) { e.bounds = b; e.optsSet.bounds = true }
}

// WithSnapshotCache enables reuse of evaluation results across
// evaluations whose active substreams are identical.
func WithSnapshotCache(on bool) Option {
	return func(e *Engine) { e.cacheSnapshots = on; e.optsSet.cache = true }
}

// WithScanMatcher forces MATCH evaluation through the naive scan-based
// matcher, disabling property indexes, predicate pushdown, typed
// adjacency, and selectivity-based ordering. Result bags are identical
// either way; the option exists as the ablation baseline for the
// index-layer benchmarks (BenchmarkEngineSelectivity).
func WithScanMatcher(on bool) Option {
	return func(e *Engine) { e.scanMatcher = on }
}

// WithDeltaBypassRatio sets the churn ratio above which a delta-
// evaluated round bypasses to one full evaluation (default 0.3). The
// query stays on the delta path and re-enters maintenance once churn
// drops to half the ratio, paying a single whole-window reseed. r <= 0
// disables the guard entirely.
func WithDeltaBypassRatio(r float64) Option {
	return func(e *Engine) { e.deltaBypass = r }
}

// WithStaticGraph unions a static background graph into every snapshot
// graph, letting continuous queries join streaming data against
// reference data (the paper's future-work item iii). The engine takes
// ownership of g.
func WithStaticGraph(g *pg.Graph) Option {
	return func(e *Engine) { e.static = g }
}

// WithIncrementalSnapshots maintains each query's snapshot graph
// incrementally across evaluations instead of re-unioning the whole
// window every time — a large win when windows overlap heavily (small
// EVERY relative to WITHIN). Trade-off: node and relationship values
// emitted in results view the live rolling graph, so their labels and
// properties may change as the window slides; queries that emit scalars
// (the common case) are unaffected.
func WithIncrementalSnapshots(on bool) Option {
	return func(e *Engine) { e.incremental = on; e.optsSet.incremental = true }
}

// WithMetrics selects the instrumentation registry the engine records
// into (per-query latency histograms, cache and scheduler counters; see
// metrics.go for the taxonomy). The default is a fresh private registry
// per engine, exposed via Metrics. Passing nil disables instrumentation
// entirely — every recording call degrades to a nil check.
func WithMetrics(reg *metrics.Registry) Option {
	return func(e *Engine) { e.metrics = reg; e.metricsSet = true }
}

// WithLogger attaches a structured logger: evaluations log at Debug
// with query name, ω, and window bounds as attrs; failures log at
// Error. The default is no logging.
func WithLogger(l *slog.Logger) Option {
	return func(e *Engine) { e.logger = l }
}

// WithHistoryRetention bounds the number of materialized result tables
// each query keeps in its time-varying table (Definition 5.7). Older
// tables are evicted and Ψ(ω) becomes undefined before the retained
// horizon; TimeVarying.Dropped reports how many were evicted. n = 0
// keeps unlimited history, preserving the original semantics.
func WithHistoryRetention(n int) Option {
	return func(e *Engine) { e.historyRetention = n }
}

// New returns an engine.
func New(opts ...Option) *Engine {
	e := &Engine{queries: make(map[string]*Query), deltaBypass: 0.3, sharedHier: true}
	for _, o := range opts {
		o(e)
	}
	if !e.metricsSet {
		e.metrics = metrics.NewRegistry()
	}
	e.sched = newSchedMetrics(e.metrics)
	return e
}

// Metrics returns the engine's instrumentation registry (nil when built
// with WithMetrics(nil)).
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// Stats are per-query evaluation counters. The duration fields are
// cumulative nanoseconds; divide by Evaluations for per-instant
// figures, or use Query.EvalLatency for quantiles.
type Stats struct {
	Evaluations    int
	SkippedByCache int
	ElementsSeen   int
	RowsEmitted    int

	// WindowElements is the number of stream elements inside the
	// active window at the most recent evaluation.
	WindowElements int
	// EvalNanos is the total time spent evaluating instants, including
	// snapshot construction and the stream operator.
	EvalNanos int64
	// SnapshotNanos is the portion of EvalNanos spent building (or
	// incrementally rolling) snapshot graphs.
	SnapshotNanos int64
	// CypherNanos is the portion of EvalNanos spent in the Cypher body.
	CypherNanos int64
	// IncrementalAdds/IncrementalRemoves count elements applied to
	// rolling snapshots in incremental mode.
	IncrementalAdds    int
	IncrementalRemoves int
	// Shed counts evaluation instants skipped by deadline shedding
	// (WithEvalDeadline); each one was reported to the sink as a Result
	// with Skipped set.
	Shed int

	// DeltaApplied counts evaluation instants answered by the
	// delta-driven evaluator; DeltaFallbacks counts permanent
	// per-query fallbacks to full evaluation (at most one per query:
	// either the body is outside the maintainable fragment or a
	// runtime value was not maintainable). DeltaBypasses counts
	// instants the churn-ratio guard answered with one full evaluation
	// while staying on the delta path (see WithDeltaBypassRatio).
	DeltaApplied   int
	DeltaFallbacks int
	DeltaBypasses  int
	// DeltaResums counts precision-restoring float re-summations inside
	// maintained sum() accumulators (drift bound or removal budget hit);
	// the query keeps running on the delta path.
	DeltaResums int
}

// Query is a registered continuous query.
type Query struct {
	// Immutable after registration.
	name   string
	reg    *ast.Registration
	emit   *ast.Emit // nil for RETURN-terminated registrations
	hist   *stream.Stream
	sink   Sink
	params map[string]value.Value

	// streamName binds the query to a named input stream (future-work
	// item i: querying multiple streams); "" is the default stream. It
	// is fixed atomically at registration time.
	streamName string

	// mu guards the mutable evaluation state below. It is held only
	// for short state transitions, never across a sink invocation.
	mu sync.Mutex

	cfg          window.Config
	pendingStart bool // STARTING AT NOW: resolve ω₀ on first input
	nextEval     time.Time
	prev         *eval.Table // previous full evaluation result
	prevElems    string      // content key of previous active substream
	prevCached   *eval.Table
	done         bool
	failErr      error
	stats        Stats
	history      TimeVarying
	qm           queryMetrics

	// rollers holds the per-width rolling snapshots when the engine
	// runs in incremental mode.
	rollers map[time.Duration]*rolling

	// delta is the maintained delta-evaluation state (nil until the
	// first evaluation decides whether the query is maintainable; see
	// deltaeval.go).
	delta *deltaState

	// Multi-query optimization (sharedeval.go): memberOf is the shared
	// group this query evaluates in (nil = unshared); group is set on a
	// group's chassis instead. canon/canonProg are the registration-time
	// canonical decomposition and its compiled delta program. All four
	// are fixed under e.mu at registration and never reassigned.
	memberOf  *sharedGroup
	group     *sharedGroup
	canon     *ast.CanonQuery
	canonProg *eval.DeltaProgram

	// Late-join state (hierarchy.go): lateJoin marks a member that
	// merged into a running generation (introspection, permanent);
	// needBackfill requests the one-time catch-up evaluation that
	// rebuilds its diff baseline before its first shared instant
	// (guarded by the chassis lock during evaluation).
	lateJoin     bool
	needBackfill bool

	// evalMu serializes this query's evaluation chain: whoever holds it
	// owns the right to run evaluations, in instant order, until
	// nextEval passes evalTarget. evalTarget (guarded by mu) is the
	// high-water mark of AdvanceTo requests; the chain owner re-reads
	// it after every instant, so a concurrent AdvanceTo that fails to
	// acquire evalMu may simply raise the target and move on.
	evalMu     sync.Mutex
	evalTarget time.Time

	// chainStart (guarded by mu) is the wall-clock time the current
	// catch-up run of this query's chain began; zero while caught up.
	// Deadline shedding measures against it (see overload.go).
	chainStart time.Time
}

// Name returns the registration name.
func (q *Query) Name() string { return q.name }

// Stats returns a copy of the query's counters.
func (q *Query) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// EvalLatency returns a snapshot of the query's evaluation latency
// histogram (count, sum, p50/p95/p99). Zero when the engine was built
// with WithMetrics(nil).
func (q *Query) EvalLatency() metrics.HistogramSnapshot {
	return q.qm.evalLatency.Snapshot()
}

// History returns the time-varying table of everything this query has
// produced so far (Definition 5.7). The returned table is safe for
// concurrent use with an ongoing AdvanceTo.
func (q *Query) History() *TimeVarying { return &q.history }

// BufferedElements returns the number of stream elements currently
// retained for this query (bounded by the window width plus one slide;
// the engine prunes older history).
func (q *Query) BufferedElements() int { return q.hist.Len() }

// Registration returns the parsed registration.
func (q *Query) Registration() *ast.Registration { return q.reg }

// Stream returns the input stream name the query is bound to ("" is
// the default stream).
func (q *Query) Stream() string { return q.streamName }

// Err returns the evaluation error that permanently stopped this
// query, or nil while it is healthy. A failed query stops evaluating
// but does not affect other registered queries.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failErr
}

// Register adds a parsed registration with the given result sink.
func (e *Engine) Register(reg *ast.Registration, sink Sink) (*Query, error) {
	return e.register(reg, sink, nil, "")
}

// RegisterWithParams is Register with query parameters ($name values).
func (e *Engine) RegisterWithParams(reg *ast.Registration, sink Sink, params map[string]value.Value) (*Query, error) {
	return e.register(reg, sink, params, "")
}

// register is the single registration path: the stream binding happens
// under the same critical section that publishes the query, so a
// concurrent Push can never observe a query bound to the wrong stream
// (or resolve a STARTING AT NOW ω₀ from the wrong stream's elements).
func (e *Engine) register(reg *ast.Registration, sink Sink, params map[string]value.Value, streamName string) (*Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[reg.Name]; dup {
		return nil, fmt.Errorf("engine: query %q already registered", reg.Name)
	}
	width := reg.MaxWithin()
	if width <= 0 {
		return nil, fmt.Errorf("engine: registration %q declares no WITHIN window", reg.Name)
	}
	slide := width // RETURN registrations: grid defaults to tumbling
	if em := reg.EmitClause(); em != nil {
		if em.Every <= 0 {
			return nil, fmt.Errorf("engine: registration %q: EVERY must be positive", reg.Name)
		}
		slide = em.Every
	}
	q := &Query{
		name: reg.Name,
		reg:  reg,
		emit: reg.EmitClause(),
		cfg: window.Config{
			Start:  reg.StartAt,
			Width:  width,
			Slide:  slide,
			Bounds: e.bounds,
		},
		hist:       stream.New(),
		sink:       sink,
		params:     params,
		streamName: streamName,
		qm:         newQueryMetrics(e.metrics, reg.Name),
	}
	q.history.setLimit(e.historyRetention)
	if reg.StartNow {
		q.pendingStart = true
		if !e.now.IsZero() {
			q.cfg.Start = e.now
			q.pendingStart = false
			q.nextEval = q.cfg.Start
			q.evalTarget = q.nextEval.Add(-time.Nanosecond)
		}
		// Validate width/slide now even though ω₀ may still be pending:
		// an invalid combination must fail at registration, not at the
		// first evaluation.
		c := q.cfg
		if c.Start.IsZero() {
			c.Start = time.Unix(0, 0) // placeholder until ω₀ resolves
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
	} else {
		if err := q.cfg.Validate(); err != nil {
			return nil, err
		}
		q.nextEval = q.cfg.Start
		// evalTarget must start strictly before nextEval: its zero value
		// (year 1) would otherwise act as an implicit target, making the
		// scheduler walk every slide instant from a pre-year-1 STARTING AT
		// up to year 1 — millions of evaluations before the first real
		// AdvanceTo target applies.
		q.evalTarget = q.nextEval.Add(-time.Nanosecond)
	}
	e.queries[reg.Name] = q
	if e.sharedEval {
		e.joinSharedGroup(q)
	}
	return q, nil
}

// RegisterSource parses src as a REGISTER QUERY statement and registers
// it.
func (e *Engine) RegisterSource(src string, sink Sink) (*Query, error) {
	reg, err := parser.ParseRegistration(src)
	if err != nil {
		return nil, err
	}
	return e.Register(reg, sink)
}

// RegisterSourceOn registers src bound to a named input stream: the
// query only consumes elements pushed via PushStream with the same
// name. This implements the paper's future-work item (i), querying
// multiple logical streams with one engine.
func (e *Engine) RegisterSourceOn(streamName, src string, sink Sink) (*Query, error) {
	reg, err := parser.ParseRegistration(src)
	if err != nil {
		return nil, err
	}
	return e.register(reg, sink, nil, streamName)
}

// Deregister removes a query by name (the paper's registry allows
// editing and deleting registered queries) and releases its evaluation
// state: delta-eval maintained structures, rolling snapshots, previous
// results, and buffered stream history. A shared-group member also
// leaves its group; the group's chassis is retired when its last member
// leaves.
func (e *Engine) Deregister(name string) error {
	e.mu.Lock()
	q, ok := e.queries[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("engine: query %q not registered", name)
	}
	delete(e.queries, name)
	g := q.memberOf
	empty := false
	if g != nil {
		g.members = removeQuery(g.members, q)
		empty = len(g.members) == 0
		if empty {
			if e.groups[g.key] == g {
				delete(e.groups, g.key)
			}
			keep := e.groupList[:0]
			for _, x := range e.groupList {
				if x != g {
					keep = append(keep, x)
				}
			}
			e.groupList = keep
			// A retired group can no longer seed its children; they
			// fall back to scratch evaluation.
			for _, x := range e.groupList {
				if x.parent == g {
					x.parent, x.pmap = nil, nil
				}
			}
		}
		e.sched.mqoGroups.Set(int64(len(e.groupList)))
	}
	e.mu.Unlock()

	// Release outside e.mu: q.release waits on q.mu, which an in-flight
	// evaluation may hold, and pushes must not stall behind it.
	q.release()
	if g != nil {
		ch := g.chassis
		ch.mu.Lock()
		if ds := ch.delta; ds != nil {
			for i, sub := range ds.subs {
				if sub.q != q {
					continue
				}
				sub.release()
				// Drop the dead subscriber's per-match contributions so the
				// shared match set does not pin its result rows.
				for _, dm := range ds.matches {
					if dm.per != nil {
						dm.per[i] = subContrib{}
					} else if len(ds.subs) == 1 {
						dm.one = subContrib{}
					}
				}
			}
		}
		ch.mu.Unlock()
		if empty {
			ch.release()
		}
	}
	return nil
}

// Queries returns the registered queries sorted by name.
func (e *Engine) Queries() []*Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Push appends a stream element (G, ω) to the default stream. Elements
// must arrive in non-decreasing timestamp order per stream. Push does
// not trigger evaluations; call AdvanceTo.
func (e *Engine) Push(g *pg.Graph, ts time.Time) error {
	return e.PushStream("", g, ts)
}

// PushStream appends a stream element to the named logical stream,
// reaching only the queries registered on it. Per-stream timestamp
// monotonicity is validated against every receiving query before any
// state is mutated, so a rejected push leaves all queries untouched.
func (e *Engine) PushStream(streamName string, g *pg.Graph, ts time.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.admit(); err != nil {
		return fmt.Errorf("engine: push to stream %q rejected: %w", streamName, err)
	}
	var targets []*Query
	for _, q := range e.queries {
		if q.streamName == streamName {
			targets = append(targets, q)
		}
	}
	// Shared groups buffer elements once, on the chassis; members keep
	// their per-query counters and STARTING AT NOW resolution but no
	// history of their own.
	for _, sg := range e.groupList {
		if sg.chassis.streamName == streamName {
			targets = append(targets, sg.chassis)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })
	// Validation pass: e.mu serializes appends, so a violation found
	// here cannot appear between this check and the mutation pass
	// (evaluation workers only ever drop old elements, which relaxes
	// the constraint).
	for _, q := range targets {
		if last, ok := q.hist.Last(); ok && ts.Before(last) {
			return fmt.Errorf("engine: out-of-order element %s before %s on stream %q",
				ts.Format(time.RFC3339), last.Format(time.RFC3339), streamName)
		}
	}
	if ts.After(e.now) {
		e.now = ts
	}
	for _, q := range targets {
		q.mu.Lock()
		if q.pendingStart {
			q.cfg.Start = ts
			q.nextEval = ts
			q.evalTarget = q.nextEval.Add(-time.Nanosecond)
			q.pendingStart = false
		}
		if q.memberOf != nil {
			// Grouped member: the chassis (also a target) holds the
			// element; count it for the member's observability parity.
			q.stats.ElementsSeen++
			q.mu.Unlock()
			continue
		}
		err := q.hist.Append(g, ts)
		if err == nil {
			q.stats.ElementsSeen++
		}
		q.mu.Unlock()
		if err != nil {
			return err // unreachable after validation; kept as a safety net
		}
	}
	return nil
}

// Now returns the engine's virtual clock (the latest timestamp seen).
func (e *Engine) Now() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// evaluate runs one evaluation of q at instant ω, per Figure 5 of the
// paper: window → snapshot graph → Cypher evaluation → stream operator
// → time-annotated table. The caller must hold q.mu; the produced
// Result (nil when no window contains ω) is emitted to the sink by the
// caller after releasing the lock, so re-entrant sinks cannot
// deadlock. AdvanceTo itself lives in scheduler.go.
func (e *Engine) evaluate(q *Query, ω time.Time) (*Result, error) {
	start := time.Now()

	// Delta-driven path (see deltaeval.go): maintain the result bag
	// under the window delta instead of re-evaluating the body. Falls
	// through to the classic path when the query is outside the
	// maintainable fragment or bails at runtime.
	if e.deltaEval {
		if ds := e.ensureDelta(q); !ds.failed {
			out, iv, nodes, rels, ok, err := e.deltaAdvance(q, ds, ω)
			if err != nil {
				return nil, err
			}
			if !ds.failed {
				if !ok {
					return nil, nil
				}
				if ds.lastBypassed {
					q.stats.DeltaBypasses++
					q.qm.deltaBypass.Inc()
				} else {
					q.stats.DeltaApplied++
					q.qm.deltaApplied.Inc()
				}
				return e.finishEval(q, ω, start, q.op(), out, iv, nodes, rels)
			}
		}
	}

	result, iv, nodes, rels, ok, err := e.computeResult(q, ω)
	if err != nil {
		return nil, err
	}
	if !ok {
		// No window contains ω (strict mode with β > α): skip.
		return nil, nil
	}

	// Stream operator (Section 5.3): SNAPSHOT re-emits everything; ON
	// ENTERING / ON EXITING are bag differences against the previous
	// evaluation's result.
	op := q.op()
	out := result
	switch op {
	case ast.OpOnEntering:
		prev := q.prev
		if prev == nil {
			prev = &eval.Table{Cols: result.Cols}
		}
		out, err = eval.BagDifference(result, prev)
	case ast.OpOnExiting:
		prev := q.prev
		if prev == nil {
			prev = &eval.Table{Cols: result.Cols}
		}
		out, err = eval.BagDifference(prev, result)
	}
	if err != nil {
		return nil, err
	}
	// Only the diff operators need the previous result; retaining it
	// for SNAPSHOT queries would pin an extra full result table per
	// query for no reader.
	if op == ast.OpSnapshot {
		q.prev = nil
	} else {
		q.prev = result
	}

	return e.finishEval(q, ω, start, op, out, iv, nodes, rels)
}

// finishEval is the shared tail of both evaluation paths: annotate the
// operator output with the window bounds, record stats and metrics,
// append to the query's time-varying table, and build the Result.
func (e *Engine) finishEval(q *Query, ω time.Time, start time.Time, op ast.StreamOp, out *eval.Table, iv stream.Interval, nodes, rels int) (*Result, error) {
	annotated := annotate(out, iv)
	d := time.Since(start)
	q.stats.Evaluations++
	q.stats.RowsEmitted += annotated.Len()
	q.stats.EvalNanos += int64(d)
	q.qm.evalLatency.Observe(d)
	q.qm.evals.Inc()
	q.qm.rows.Add(int64(annotated.Len()))
	if e.logger != nil {
		e.logger.Debug("seraph: evaluated",
			"query", q.name, "at", ω,
			"win_start", iv.Start, "win_end", iv.End,
			"rows", annotated.Len(), "dur", d)
	}
	res := &Result{
		Query:         q.name,
		At:            ω,
		Window:        iv,
		Op:            op,
		Table:         annotated,
		SnapshotNodes: nodes,
		SnapshotRels:  rels,
	}
	if err := q.history.Append(TimeAnnotated{Interval: iv, Table: annotated}); err != nil {
		return nil, err
	}
	return res, nil
}

// computeResult evaluates q's body over the snapshot graph(s) at ω
// without applying the stream operator or emitting: the full result
// table, the active window, and the default snapshot's size. ok is
// false when no window contains ω.
func (e *Engine) computeResult(q *Query, ω time.Time) (result *eval.Table, iv stream.Interval, nodes, rels int, ok bool, err error) {
	iv, ok = q.cfg.ActiveWindow(ω)
	if !ok {
		return nil, iv, 0, 0, false, nil
	}

	// Snapshot graphs, one per distinct WITHIN width, built lazily.
	// Construction time accumulates into snapNanos so the snapshot-build
	// vs Cypher-eval split is observable per query.
	type snap struct {
		store *graphstore.Store
		n, m  int
		elems int
	}
	snaps := map[time.Duration]*snap{}
	var snapErr error
	var snapNanos int64
	getSnap := func(width time.Duration) *graphstore.Store {
		if width == 0 {
			width = q.cfg.Width
		}
		if s, ok := snaps[width]; ok {
			return s.store
		}
		t0 := time.Now()
		wiv, ok := window.ActiveWindowWidth(q.cfg, width, ω)
		var elems []stream.Element
		if ok {
			elems = q.hist.Substream(wiv)
		}
		var s *snap
		if e.incremental {
			roller, err := q.roller(width, e.static)
			var added, removed int
			if err == nil {
				added, removed, err = roller.advance(elems)
			}
			q.stats.IncrementalAdds += added
			q.stats.IncrementalRemoves += removed
			q.qm.incAdds.Add(int64(added))
			q.qm.incRemoves.Add(int64(removed))
			if err != nil {
				snapErr = err
				s = &snap{store: graphstore.New()}
			} else {
				s = &snap{store: roller.store, n: roller.store.NumNodes(), m: roller.store.NumRels()}
			}
		} else {
			g, err := stream.Snapshot(elems)
			if err == nil && e.static != nil {
				err = g.UnionInPlace(e.static)
			}
			if err != nil {
				snapErr = err
				g = pg.New()
			}
			s = &snap{store: graphstore.FromGraph(g), n: g.NumNodes(), m: g.NumRels()}
		}
		s.elems = len(elems)
		snaps[width] = s
		snapNanos += int64(time.Since(t0))
		return s.store
	}

	// The "equal window contents" optimization: when enabled and the
	// active substream of the default window is unchanged, reuse the
	// previous evaluation's table.
	var contentKey string
	if e.cacheSnapshots {
		elems := q.hist.Substream(iv)
		contentKey = substreamKey(elems)
		q.stats.WindowElements = len(elems)
		q.qm.windowElems.Set(int64(len(elems)))
		if q.prevCached != nil && contentKey == q.prevElems {
			result = q.prevCached
			q.stats.SkippedByCache++
			q.qm.cacheHits.Inc()
		} else {
			q.qm.cacheMisses.Inc()
		}
	}

	if result == nil {
		ctx := &eval.Ctx{
			GraphFor: getSnap,
			Params:   q.params,
			Builtins: map[string]value.Value{
				"win_start": value.NewDateTime(iv.Start),
				"win_end":   value.NewDateTime(iv.End),
				"now":       value.NewDateTime(ω),
			},
			Match:               q.qm.match,
			DisableMatchIndexes: e.scanMatcher,
		}
		ctx.Store = getSnap(q.cfg.Width)
		if snapErr != nil {
			return nil, iv, 0, 0, true, snapErr
		}
		// EvalQuery may build further snapshots through ctx.GraphFor
		// (multi-width queries); subtract that share so CypherNanos is
		// pure Cypher time.
		snapBefore := snapNanos
		t0 := time.Now()
		result, err = eval.EvalQuery(ctx, q.reg.Body)
		cypher := int64(time.Since(t0)) - (snapNanos - snapBefore)
		if cypher < 0 {
			cypher = 0
		}
		q.stats.CypherNanos += cypher
		q.qm.cypherEval.Observe(time.Duration(cypher))
		if err != nil {
			return nil, iv, 0, 0, true, err
		}
		if snapErr != nil {
			return nil, iv, 0, 0, true, snapErr
		}
	}
	if e.cacheSnapshots {
		q.prevElems = contentKey
		q.prevCached = result
	}
	if snapNanos > 0 {
		q.stats.SnapshotNanos += snapNanos
		q.qm.snapshotBuild.Observe(time.Duration(snapNanos))
	}
	if def := snaps[q.cfg.Width]; def != nil {
		nodes, rels = def.n, def.m
		q.stats.WindowElements = def.elems
		q.qm.windowElems.Set(int64(def.elems))
	}
	return result, iv, nodes, rels, true, nil
}

// roller returns (creating on first use) the query's rolling snapshot
// for a window width. A static background graph is added once as a
// permanent contribution.
func (q *Query) roller(width time.Duration, static *pg.Graph) (*rolling, error) {
	if q.rollers == nil {
		q.rollers = map[time.Duration]*rolling{}
	}
	if r, ok := q.rollers[width]; ok {
		return r, nil
	}
	r := newRolling()
	if static != nil {
		if err := r.add(static); err != nil {
			return nil, err
		}
	}
	q.rollers[width] = r
	return r, nil
}

// annotate appends the reserved win_start / win_end columns
// (Definition 5.6) to a projection result.
//
// All rows are cut from one backing array sized to the table: the
// query's history retains results, so no slack may ride along.
func annotate(t *eval.Table, iv stream.Interval) *eval.Table {
	out := &eval.Table{Cols: append(append([]string(nil), t.Cols...), "win_start", "win_end")}
	if len(t.Rows) == 0 {
		return out
	}
	width := len(t.Cols) + 2
	start, end := value.NewDateTime(iv.Start), value.NewDateTime(iv.End)
	backing := make([]value.Value, 0, len(t.Rows)*width)
	out.Rows = make([][]value.Value, len(t.Rows))
	for i, row := range t.Rows {
		lo := len(backing)
		backing = append(append(backing, row...), start, end)
		out.Rows[i] = backing[lo:len(backing):len(backing)]
	}
	return out
}

// substreamKey builds a content identity for an active substream:
// element timestamps, graph sizes, a per-graph structural digest
// (node/rel ids, endpoints and types) and the graph's mutation
// version. Sizes alone are not enough — two substreams of equal shape
// (same timestamps, node and relationship counts) but different
// contents, or an element graph mutated in place between evaluations,
// would otherwise alias to the same key and silently reuse a stale
// cached result. The version counter covers what the cheap digest
// skips (labels and property values), provided mutations go through
// the pg.Graph API.
func substreamKey(elems []stream.Element) string {
	var b []byte
	for _, e := range elems {
		b = appendInt(b, e.Time.UnixNano())
		b = appendInt(b, int64(e.Graph.NumNodes()))
		b = appendInt(b, int64(e.Graph.NumRels()))
		b = appendInt(b, int64(e.Graph.Digest()))
		b = appendInt(b, int64(e.Graph.Version()))
	}
	return string(b)
}

func appendInt(b []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return append(b, ';')
}
