package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"seraph/internal/ast"
	"seraph/internal/eval"
	"seraph/internal/ingest"
	"seraph/internal/parser"
	"seraph/internal/stream"
	"seraph/internal/window"
)

// Checkpointing serializes the engine's durable state — registrations,
// window positions and the retained stream history — so a restarted
// process resumes exactly where it stopped: the next evaluation instant
// fires on schedule and ON ENTERING / ON EXITING diffs continue against
// the pre-restart results (rebuilt by a silent warm-up evaluation).
//
// Each input stream's window (Engine.Window) is stored once; a query
// records only how many of its last elements it buffers.
//
// Limitations: parameterized registrations (RegisterWithParams) are not
// checkpointable, and per-query sinks must be re-bound at restore time.

const checkpointVersion = 2

type checkpointFile struct {
	Version     int                `json:"version"`
	Bounds      string             `json:"bounds"`
	Cache       bool               `json:"cache"`
	Incremental bool               `json:"incremental"`
	DeltaEval   bool               `json:"delta_eval,omitempty"`
	SharedEval  bool               `json:"shared_eval,omitempty"`
	HierOff     bool               `json:"shared_hier_off,omitempty"`
	Now         time.Time          `json:"now"`
	Static      json.RawMessage    `json:"static,omitempty"`
	Streams     []checkpointStream `json:"streams"`
	Queries     []checkpointQuery  `json:"queries"`
	// Seq and Offsets are set by Checkpointer.Save (checkpointdir.go).
	Seq     int                `json:"seq,omitempty"`
	Offsets map[string][]int64 `json:"offsets,omitempty"`
}

type checkpointStream struct {
	Name     string            `json:"name"`
	Elements []json.RawMessage `json:"elements"`
}

type checkpointQuery struct {
	Source   string    `json:"source"`
	Stream   string    `json:"stream,omitempty"`
	Start    time.Time `json:"start"`
	Pending  bool      `json:"pending,omitempty"`
	NextEval time.Time `json:"next_eval"`
	Done     bool      `json:"done,omitempty"`
	Stats    Stats     `json:"stats"`
	// Buffered is the length of the query's history: the last Buffered
	// elements of its stream's window.
	Buffered int `json:"buffered"`
}

// Checkpoint writes the engine's state to w.
func (e *Engine) Checkpoint(w io.Writer) error { return e.writeCheckpoint(w, 0, nil) }

// writeCheckpoint captures the engine's state and encodes it to w, with
// the Checkpointer's sequence number and applied offsets (zero for a
// plain Checkpoint).
func (e *Engine) writeCheckpoint(w io.Writer, seq int, offsets map[string][]int64) error {
	cp, err := e.checkpointState()
	if err != nil {
		return err
	}
	cp.Seq, cp.Offsets = seq, offsets
	return json.NewEncoder(w).Encode(cp)
}

// Window returns the elements the engine buffers for the named input
// stream: the longest history of any query registered on it. Every
// query on a stream receives the same pushes from the time it registers
// and prunes only from the front, so every other history on the stream
// is a suffix of it.
func (e *Engine) Window(streamName string) []stream.Element {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.window(streamName)
}

// window is Window with e.mu held. Holding e.mu excludes pushes, so the
// histories read afterwards can only be shorter: evaluation workers
// prune from the front.
func (e *Engine) window(streamName string) []stream.Element {
	var w []stream.Element
	for _, q := range e.queries {
		if q.streamName != streamName {
			continue
		}
		if h := q.buffered(); len(h) > len(w) {
			w = h
		}
	}
	return w
}

// buffered returns the history q's evaluations read: its own, or its
// shared group's chassis's.
func (q *Query) buffered() []stream.Element {
	if q.memberOf != nil {
		return q.memberOf.chassis.hist.Elements()
	}
	return q.hist.Elements()
}

// checkpointState captures the engine's durable state.
func (e *Engine) checkpointState() (*checkpointFile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := &checkpointFile{
		Version:     checkpointVersion,
		Bounds:      e.bounds.String(),
		Cache:       e.cacheSnapshots,
		Incremental: e.incremental,
		DeltaEval:   e.deltaEval,
		SharedEval:  e.sharedEval,
		HierOff:     !e.sharedHier,
		Now:         e.now,
	}
	if e.static != nil {
		data, err := ingest.Encode(e.static, time.Unix(0, 0))
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint static graph: %w", err)
		}
		cp.Static = data
	}
	names := make([]string, 0, len(e.queries))
	for name := range e.queries {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic checkpoint contents
	windows := map[string][]stream.Element{}
	for _, name := range names {
		q := e.queries[name]
		if q.params != nil {
			return nil, fmt.Errorf("engine: checkpoint: query %q has parameters, which are not checkpointable", q.name)
		}
		w, seen := windows[q.streamName]
		if !seen {
			// Read before any history on the stream (see window).
			w = e.window(q.streamName)
			windows[q.streamName] = w
			cs := checkpointStream{Name: q.streamName, Elements: make([]json.RawMessage, 0, len(w))}
			for _, el := range w {
				data, err := ingest.Encode(el.Graph, el.Time)
				if err != nil {
					return nil, fmt.Errorf("engine: checkpoint stream %q: %w", q.streamName, err)
				}
				cs.Elements = append(cs.Elements, data)
			}
			cp.Streams = append(cp.Streams, cs)
		}
		q.mu.Lock()
		cq := checkpointQuery{
			Source:   ast.RegistrationString(q.reg),
			Stream:   q.streamName,
			Start:    q.cfg.Start,
			Pending:  q.pendingStart,
			NextEval: q.nextEval,
			Done:     q.done,
			Stats:    q.stats,
		}
		h := q.buffered()
		q.mu.Unlock()
		if !isSuffix(h, w) {
			return nil, fmt.Errorf("engine: checkpoint: query %q buffers a history that is not a suffix of stream %q's window", q.name, q.streamName)
		}
		cq.Buffered = len(h)
		cp.Queries = append(cp.Queries, cq)
	}
	return cp, nil
}

// isSuffix reports whether h is a suffix of w by graph identity.
func isSuffix(h, w []stream.Element) bool {
	if len(h) > len(w) {
		return false
	}
	for i, el := range w[len(w)-len(h):] {
		if el.Graph != h[i].Graph {
			return false
		}
	}
	return true
}

// Restore reconstructs an engine from a checkpoint. sinkFor is called
// once per restored query to re-bind its result sink (nil sinks are
// allowed). The restored engine warms up each query's previous result
// so ON ENTERING / ON EXITING diffs continue seamlessly. Extra options
// (e.g. WithMetrics, WithLogger, WithParallelism — state a checkpoint
// does not carry) are applied after the checkpoint-derived ones.
func Restore(r io.Reader, sinkFor func(queryName string) Sink, extra ...Option) (*Engine, error) {
	var cp checkpointFile
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	return restoreDecoded(&cp, sinkFor, extra)
}

// checkConfigConflict rejects a restore whose explicitly-passed extra
// options contradict the configuration the checkpoint was taken under.
// Silently restoring under different window bounds or evaluation
// strategy would change result semantics mid-stream; the caller must
// either drop the conflicting option or take a fresh checkpoint under
// the new configuration. Options a checkpoint does not carry (metrics,
// logger, parallelism, retention, ...) are never conflicts.
func checkConfigConflict(cp *checkpointFile, extra []Option) error {
	probe := &Engine{}
	for _, o := range extra {
		o(probe)
	}
	reject := func(what, cpVal, reqVal string) error {
		return fmt.Errorf("engine: restore: checkpoint was taken with %s %s but %s was explicitly requested; "+
			"drop the conflicting option or re-checkpoint under the new configuration", what, cpVal, reqVal)
	}
	if probe.optsSet.bounds && probe.bounds.String() != cp.Bounds {
		return reject("window bounds", cp.Bounds, probe.bounds.String())
	}
	if probe.optsSet.cache && probe.cacheSnapshots != cp.Cache {
		return reject("snapshot cache", fmt.Sprint(cp.Cache), fmt.Sprint(probe.cacheSnapshots))
	}
	if probe.optsSet.delta && probe.deltaEval != cp.DeltaEval {
		return reject("delta evaluation", fmt.Sprint(cp.DeltaEval), fmt.Sprint(probe.deltaEval))
	}
	// WithDeltaEval(true) implies incremental snapshots; only flag the
	// incremental setting itself when it was not a consistent implication.
	if probe.optsSet.incremental && probe.incremental != cp.Incremental {
		return reject("incremental snapshots", fmt.Sprint(cp.Incremental), fmt.Sprint(probe.incremental))
	}
	if probe.optsSet.shared && probe.sharedEval != cp.SharedEval {
		return reject("shared evaluation", fmt.Sprint(cp.SharedEval), fmt.Sprint(probe.sharedEval))
	}
	if probe.optsSet.hier && probe.sharedHier == cp.HierOff {
		return reject("shared hierarchy", fmt.Sprint(!cp.HierOff), fmt.Sprint(probe.sharedHier))
	}
	return nil
}

// restoreDecoded builds an engine from an already-decoded checkpoint
// (Restore, and Recover in checkpointdir.go).
func restoreDecoded(cp *checkpointFile, sinkFor func(queryName string) Sink, extra []Option) (*Engine, error) {
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("engine: restore: unsupported checkpoint version %d (this engine reads version %d)", cp.Version, checkpointVersion)
	}
	if err := checkConfigConflict(cp, extra); err != nil {
		return nil, err
	}
	opts := []Option{WithSnapshotCache(cp.Cache), WithIncrementalSnapshots(cp.Incremental), WithDeltaEval(cp.DeltaEval), WithSharedEval(cp.SharedEval), WithSharedHierarchy(!cp.HierOff)}
	if cp.Bounds == window.BoundsStrict.String() {
		opts = append(opts, WithBounds(window.BoundsStrict))
	}
	if cp.Static != nil {
		g, _, err := ingest.Decode(cp.Static)
		if err != nil {
			return nil, fmt.Errorf("engine: restore static graph: %w", err)
		}
		opts = append(opts, WithStaticGraph(g))
	}
	opts = append(opts, extra...)
	e := New(opts...)
	e.now = cp.Now

	// Decode each stream's window once; every query on the stream
	// appends the same graphs.
	windows := make(map[string][]stream.Element, len(cp.Streams))
	for _, cs := range cp.Streams {
		if _, dup := windows[cs.Name]; dup {
			return nil, fmt.Errorf("engine: restore: stream %q listed twice", cs.Name)
		}
		w := make([]stream.Element, 0, len(cs.Elements))
		for _, data := range cs.Elements {
			g, ts, err := ingest.Decode(data)
			if err != nil {
				return nil, fmt.Errorf("engine: restore stream %q: %w", cs.Name, err)
			}
			w = append(w, stream.Element{Graph: g, Time: ts})
		}
		windows[cs.Name] = w
	}

	// Phase 1: register every query ungrouped and replay its history.
	// Shared-group formation is deferred to a regroup pass that sees
	// each query's restored schedule and window contents — only queries
	// that agree on all of it may share a chassis.
	shared := e.sharedEval
	e.sharedEval = false
	restored := make([]*Query, 0, len(cp.Queries))
	for _, cq := range cp.Queries {
		reg, err := parser.ParseRegistration(cq.Source)
		if err != nil {
			return nil, fmt.Errorf("engine: restore query: %w", err)
		}
		var sink Sink
		if sinkFor != nil {
			sink = sinkFor(reg.Name)
		}
		q, err := e.register(reg, sink, nil, cq.Stream)
		if err != nil {
			return nil, err
		}
		q.cfg.Start = cq.Start
		q.pendingStart = cq.Pending
		q.nextEval = cq.NextEval
		q.evalTarget = q.nextEval.Add(-time.Nanosecond)
		q.done = cq.Done
		q.stats = cq.Stats
		w, ok := windows[cq.Stream]
		if !ok {
			return nil, fmt.Errorf("engine: restore query %q: stream %q has no window in the checkpoint", reg.Name, cq.Stream)
		}
		if cq.Buffered < 0 || cq.Buffered > len(w) {
			return nil, fmt.Errorf("engine: restore query %q: buffered %d outside stream %q's %d elements", reg.Name, cq.Buffered, cq.Stream, len(w))
		}
		for _, el := range w[len(w)-cq.Buffered:] {
			if err := q.hist.Append(el.Graph, el.Time); err != nil {
				return nil, fmt.Errorf("engine: restore query %q history: %w", reg.Name, err)
			}
		}
		restored = append(restored, q)
	}
	e.sharedEval = shared
	if shared {
		e.restoreSharedGroups(restored)
	}

	// Phase 2: warm up the previous evaluation's state so emission
	// diffs continue across the restart. A checkpoint carries no
	// maintained delta state: it is derived, so a delta-mode engine
	// rebuilds it by running one delta round at the last evaluated
	// instant (the empty rolling snapshot makes the whole window
	// arrive as delta additions, re-seeding every match). Classic
	// mode recomputes the previous full result, which only the diff
	// operators retain. Shared groups warm up once per chassis.
	for _, q := range restored {
		if q.memberOf != nil {
			continue
		}
		if !q.done && !q.pendingStart && q.nextEval.After(q.cfg.Start) {
			lastEval := q.nextEval.Add(-q.cfg.Slide)
			warmed := false
			if e.deltaEval {
				if ds := e.ensureDelta(q); !ds.failed {
					_, _, _, _, _, err := e.deltaAdvance(q, ds, lastEval)
					if err != nil {
						return nil, fmt.Errorf("engine: restore query %q warm-up: %w", q.name, err)
					}
					warmed = !ds.failed
				}
			}
			if !warmed && q.op() != ast.OpSnapshot {
				result, _, _, _, ok, err := e.computeResult(q, lastEval)
				if err != nil {
					return nil, fmt.Errorf("engine: restore query %q warm-up: %w", q.name, err)
				}
				if ok {
					q.prev = result
				}
			}
		}
	}
	for _, g := range e.groupList {
		if err := e.warmUpGroup(g); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// restoreSharedGroups re-forms shared evaluation groups after a
// restore. Beyond the registration-time group key, members must agree
// on their restored schedule (next evaluation instant) and buffered
// window contents — two generations of the same fingerprint that were
// registered at different times hold different histories and must stay
// separate. Histories on one stream are suffixes of one window, so equal
// length means equal contents. Runs during single-threaded restore; no
// locking.
func (e *Engine) restoreSharedGroups(restored []*Query) {
	byKey := map[string]*sharedGroup{}
	for _, q := range restored {
		if q.done {
			continue
		}
		cq, ok := ast.Canonicalize(q.reg.Body)
		if !ok {
			continue
		}
		var prog *eval.DeltaProgram
		deltaOK := false
		if e.deltaEval {
			prog = eval.CompileDelta(cq.Rewritten)
			deltaOK = prog != nil
		}
		q.canon = cq
		q.canonProg = prog
		widthSafe := e.sharedHier && cq.WidthSafe && !deltaOK
		baseKey := sharedGroupKey(cq, q, deltaOK, widthSafe)
		key := baseKey +
			"|next=" + q.nextEval.Format(time.RFC3339Nano) +
			"|hist=" + strconv.Itoa(q.hist.Len())
		g := byKey[key]
		if g == nil {
			g = e.newSharedGroup(baseKey, q, cq, deltaOK, widthSafe)
			// The chassis inherits this member's restored history.
			for _, el := range q.hist.Elements() {
				_ = g.chassis.hist.Append(el.Graph, el.Time)
			}
			byKey[key] = g
			e.groupList = append(e.groupList, g)
			// Running generations stay joinable after a restore: a
			// post-restore registrant with the same key may merge
			// (latest restored generation wins the slot).
			if e.groups == nil {
				e.groups = map[string]*sharedGroup{}
			}
			e.groups[baseKey] = g
			e.linkSubpattern(g)
		} else if widthSafe && q.cfg.Width > g.chassis.cfg.Width {
			// A width super-group restores member by member; the chassis
			// adopts the widest window before any evaluation state
			// exists (warm-up runs after regrouping).
			e.widenChassis(g, q.cfg.Width)
		}
		q.memberOf = g
		g.members = append(g.members, q)
		// The member's own buffer is no longer read; drop it.
		q.hist.DropBefore(time.Unix(0, 1<<62))
	}
	e.sched.mqoGroups.Set(int64(len(e.groupList)))
}

// warmUpGroup rebuilds a restored group's evaluation state at the last
// evaluated instant: shared delta state when the group is delta-
// maintained, otherwise each diff-operator member's previous full
// result via one shared evaluation.
func (e *Engine) warmUpGroup(g *sharedGroup) error {
	ch := g.chassis
	members := g.members
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.pendingStart || !ch.nextEval.After(ch.cfg.Start) {
		return nil
	}
	lastEval := ch.nextEval.Add(-ch.cfg.Slide)
	if e.deltaEval && g.deltaOK {
		if ds := e.ensureGroupDelta(ch, g, members); !ds.failed {
			_, _, _, _, _, err := e.groupDeltaAdvance(ch, ds, lastEval)
			if err != nil {
				return fmt.Errorf("engine: restore group %q warm-up: %w", ch.name, err)
			}
			if !ds.failed {
				return nil
			}
		}
	}
	needPrev := false
	for _, m := range members {
		if !m.done && m.op() != ast.OpSnapshot {
			needPrev = true
		}
	}
	if !needPrev {
		return nil
	}
	bindings, iv, nodes, rels, ok, err := e.computeResult(ch, lastEval)
	if err != nil {
		return fmt.Errorf("engine: restore group %q warm-up: %w", ch.name, err)
	}
	if !ok {
		return nil
	}
	// Cache the warm-up bindings so a post-restore late joiner can
	// backfill from them without re-evaluating.
	g.setLastFull(bindings, iv, lastEval)
	wv := e.newWidthViews(g, ch, bindings, iv, nodes, rels, ch.stats.WindowElements, lastEval)
	for _, m := range members {
		if m.done || m.op() == ast.OpSnapshot {
			continue
		}
		v := wv.at(m.cfg.Width)
		if v.err != nil {
			return fmt.Errorf("engine: restore query %q warm-up: %w", m.name, v.err)
		}
		if !v.ok {
			continue
		}
		out, err := e.fanOutTable(m, v.table, v.storeFor, v.iv, lastEval)
		if err != nil {
			return fmt.Errorf("engine: restore query %q warm-up: %w", m.name, err)
		}
		m.prev = out
	}
	return nil
}
