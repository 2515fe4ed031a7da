package chaos

// recovery.go is the crash-recovery differential harness: a seeded run
// drives events through a durable broker (internal/queue OpenDurable)
// into a checkpointing engine, kills the process model at a scheduled
// kill point — after a WAL append but before its fsync, in the middle
// of writing a checkpoint, or in the middle of recovery itself — then
// recovers from the surviving directory and finishes the stream. The
// union of results emitted before and after the crash must be
// bag-identical to an uncrashed in-memory oracle over the same events,
// and every divergence from a clean run must be explained by a counter
// (records re-produced into the fsync loss window, redeliveries
// suppressed by offset dedup, instants re-emitted across the crash).
//
// The "crash" is abandonment: the broker, engine and checkpointer are
// dropped without any close or flush, exactly as a SIGKILL would leave
// them, and the fault (torn WAL tail, checkpoint debris) is then
// inflicted directly on the directory.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/queue"
	"seraph/internal/wal"
)

// KillPoint selects where in the durability pipeline the simulated
// crash lands.
type KillPoint int

const (
	// KillNone shuts down gracefully (log closed, no final checkpoint),
	// so recovery still exercises replay of the log suffix past the
	// last checkpoint.
	KillNone KillPoint = iota
	// KillAfterAppend crashes after records were appended and
	// acknowledged but before the OS flushed them (fsync=never): the
	// unsynced WAL tail is truncated away, modelling the documented
	// loss window. Lost records are re-produced at identical offsets.
	KillAfterAppend
	// KillMidCheckpoint crashes while a checkpoint is being written:
	// the directory is littered with a torn MANIFEST.json.tmp and a
	// stray file, both of which recovery must ignore.
	KillMidCheckpoint
	// KillMidRecovery crashes during recovery itself: a first recovery
	// is started and abandoned mid-way, then recovery runs again — it
	// must be idempotent because a machine can always die twice.
	KillMidRecovery
)

func (k KillPoint) String() string {
	switch k {
	case KillNone:
		return "none"
	case KillAfterAppend:
		return "after-append"
	case KillMidCheckpoint:
		return "mid-checkpoint"
	case KillMidRecovery:
		return "mid-recovery"
	}
	return fmt.Sprintf("KillPoint(%d)", int(k))
}

// RecoveryPlan is a seeded crash schedule. Like Plan, a zero knob
// disables its fault, so the plan documents what a failing seed did.
type RecoveryPlan struct {
	Seed            int64
	Events          int
	CheckpointEvery int   // checkpoint after this many delivered events
	SegmentBytes    int64 // small segments so compaction really deletes
	PollEvery       int   // deliver every n-th produced event
	BatchSize       int
	Fsync           wal.Policy
	Kill            KillPoint
	KillAt          int   // event index at which the crash fires
	LoseTail        int64 // bytes cut from the unsynced WAL tail (KillAfterAppend)
	OnEntering      bool  // also run the ON ENTERING query
}

// NewRecoveryPlan derives a crash plan from seed; the same seed always
// yields the same plan.
func NewRecoveryPlan(seed int64) RecoveryPlan {
	r := rand.New(rand.NewSource(seed))
	p := RecoveryPlan{
		Seed:            seed,
		Events:          40 + r.Intn(60),
		CheckpointEvery: 3 + r.Intn(8),
		SegmentBytes:    192 + int64(r.Intn(512)),
		PollEvery:       1 + r.Intn(3),
		BatchSize:       1 + r.Intn(4),
		Kill:            KillPoint(r.Intn(4)),
		OnEntering:      r.Intn(2) == 0,
	}
	p.KillAt = p.Events/3 + r.Intn(p.Events/2)
	if p.Kill == KillAfterAppend {
		// Tail loss requires a loss window; the other kill points run
		// under fsync=always so acknowledged records must all survive.
		p.Fsync = wal.FsyncNever
		p.LoseTail = int64(1 + r.Intn(96))
	}
	return p
}

// RecoveryReport holds both halves of a crashed run, the oracle, and
// the counters that must explain every divergence.
type RecoveryReport struct {
	Plan RecoveryPlan

	// Pre/Post/Oracle map query name → instant (UnixNano) → outcome.
	Pre    map[string]map[int64]Instant
	Post   map[string]map[int64]Instant
	Oracle map[string]map[int64]Instant

	Recovered     bool    // a checkpoint existed at recovery time
	CheckpointSeq int     // recovered manifest sequence (0 if none)
	ReplayFrom    []int64 // manifest offsets ingestion resumed from
	LogEnd        int64   // end offset of the log after reopen
	Produced      int64   // records acknowledged before the crash
	Reproduced    int64   // acknowledged records lost to the fsync window and re-produced
	Duplicates    int64   // post-recovery redeliveries suppressed by dedup
	ReEmitted     int64   // instants emitted on both sides of the crash (set by Verify)
}

// crashState is what the "process" knew when it died — the driver uses
// it to continue the stream, never to help recovery.
type crashState struct {
	produced   int64
	syncedSeg  string // active segment path at the last WAL sync
	syncedSize int64  // its size then: the tail-loss floor
}

func cpDirOf(dir string) string { return filepath.Join(dir, "checkpoints") }
func queueDirOf(dir string) string {
	return filepath.Join(dir, "queue")
}
func walDirOf(dir string) string {
	return filepath.Join(queueDirOf(dir), "wal", topicEvents, "p0")
}

func (p RecoveryPlan) durableConfig() queue.DurableConfig {
	return queue.DurableConfig{Fsync: p.Fsync, SegmentBytes: p.SegmentBytes}
}

func recoveryQueries(p RecoveryPlan) []querySpec {
	qs := []querySpec{{"snap", srcSnapshot}}
	if p.OnEntering {
		qs = append(qs, querySpec{"entering", srcEntering})
	}
	return qs
}

// resultRecorder returns a sink factory recording every delivered
// instant into the given map; its signature matches engine.Recover's
// sink rebinding.
func resultRecorder(into map[string]map[int64]Instant) func(string) engine.Sink {
	return func(string) engine.Sink {
		return func(res engine.Result) {
			qr := into[res.Query]
			if qr == nil {
				qr = map[int64]Instant{}
				into[res.Query] = qr
			}
			if res.Skipped {
				qr[res.At.UnixNano()] = Instant{Skipped: true, Rows: []string{}}
				return
			}
			qr[res.At.UnixNano()] = Instant{Rows: digestRows(res.Table)}
		}
	}
}

func registerRecovery(p RecoveryPlan, eng *engine.Engine, into map[string]map[int64]Instant) error {
	rec := resultRecorder(into)
	for _, qs := range recoveryQueries(p) {
		if _, err := eng.RegisterSource(qs.src, rec(qs.name)); err != nil {
			return fmt.Errorf("chaos: register %s: %w", qs.name, err)
		}
	}
	return nil
}

// RunRecovery executes the plan's crashed run in dir (which must be
// empty), recovers, and returns the report. The report is returned as
// far as it was filled even on error, for failure artifacts.
func RunRecovery(dir string, plan RecoveryPlan) (*RecoveryReport, error) {
	rep := &RecoveryReport{
		Plan:   plan,
		Pre:    map[string]map[int64]Instant{},
		Post:   map[string]map[int64]Instant{},
		Oracle: map[string]map[int64]Instant{},
	}
	events := genStream(plan.Seed, plan.Events)

	cs, err := runUntilCrash(dir, plan, events, rep)
	rep.Produced = cs.produced
	if err != nil {
		return rep, fmt.Errorf("chaos: crashed run (seed %d): %w", plan.Seed, err)
	}
	if plan.Kill == KillAfterAppend {
		if err := loseTail(dir, plan, cs); err != nil {
			return rep, fmt.Errorf("chaos: tail loss (seed %d): %w", plan.Seed, err)
		}
	}
	if err := runRecovered(dir, plan, events, cs, rep); err != nil {
		return rep, fmt.Errorf("chaos: recovered run (seed %d): %w", plan.Seed, err)
	}
	if err := runOracle(plan, events, rep.Oracle); err != nil {
		return rep, fmt.Errorf("chaos: oracle run (seed %d): %w", plan.Seed, err)
	}
	return rep, nil
}

// runUntilCrash produces events into the durable broker, delivering
// and checkpointing on the plan's cadence, until the kill point (or,
// for KillNone, the end of the stream followed by a graceful close
// without a final checkpoint). On a crash everything is abandoned
// un-closed, as a real kill would leave it.
func runUntilCrash(dir string, plan RecoveryPlan, events []event, rep *RecoveryReport) (crashState, error) {
	var cs crashState
	b, err := queue.OpenDurable(queueDirOf(dir), plan.durableConfig())
	if err != nil {
		return cs, err
	}
	if err := b.CreateTopicWith(topicEvents, queue.TopicConfig{Partitions: 1}); err != nil {
		return cs, err
	}
	eng := engine.New(engine.WithParallelism(1))
	if err := registerRecovery(plan, eng, rep.Pre); err != nil {
		return cs, err
	}
	conn, err := ingest.NewConnector(b, topicEvents, eng.Push, ingest.WithDeadLetter(topicDLQ))
	if err != nil {
		return cs, err
	}
	ck, err := eng.NewCheckpointer(cpDirOf(dir))
	if err != nil {
		return cs, err
	}

	delivered, lastCk := 0, 0
	checkpoint := func() error {
		// Same barrier order as the server: sync, persist offsets,
		// compact below them.
		if err := b.SyncWAL(); err != nil {
			return err
		}
		offsets := conn.AppliedOffsets()
		if err := ck.Save(map[string][]int64{topicEvents: offsets}); err != nil {
			return err
		}
		for p, off := range offsets {
			if err := b.CompactTopic(topicEvents, p, off); err != nil {
				return err
			}
		}
		cs.syncedSeg, cs.syncedSize, err = activeSegment(walDirOf(dir))
		return err
	}

	for i, ev := range events {
		if _, err := b.Produce(topicEvents, "", ev.payload, ev.ts); err != nil {
			return cs, err
		}
		cs.produced++
		if plan.Kill != KillNone && i == plan.KillAt {
			if plan.Kill == KillMidCheckpoint {
				if err := scatterCheckpointDebris(cpDirOf(dir)); err != nil {
					return cs, err
				}
			}
			return cs, nil // crash: no close, no sync, no final checkpoint
		}
		if (i+1)%plan.PollEvery != 0 {
			continue
		}
		n, err := conn.Poll(plan.BatchSize)
		if err != nil {
			return cs, err
		}
		if n == 0 {
			continue
		}
		if err := eng.AdvanceTo(eng.Now()); err != nil {
			return cs, err
		}
		delivered += n
		if delivered-lastCk >= plan.CheckpointEvery {
			if err := checkpoint(); err != nil {
				return cs, err
			}
			lastCk = delivered
		}
	}
	// KillNone: drain fully, then close WITHOUT a final checkpoint so
	// recovery still has a log suffix to replay.
	for {
		n, err := conn.Poll(64)
		if err != nil {
			return cs, err
		}
		if n > 0 {
			if err := eng.AdvanceTo(eng.Now()); err != nil {
				return cs, err
			}
			continue
		}
		lag, err := conn.Consumer().Lag()
		if err != nil {
			return cs, err
		}
		if lag == 0 && conn.Pending() == 0 {
			break
		}
	}
	return cs, b.CloseDurable()
}

// loseTail models the fsync=never loss window: the bytes appended to
// the active segment since the last explicit sync may not have reached
// the disk, so the crash cuts up to LoseTail of them (never below the
// synced floor — those were flushed by the checkpoint barrier). A cut
// landing mid-frame leaves a torn tail for wal.Open to truncate.
func loseTail(dir string, plan RecoveryPlan, cs crashState) error {
	path, size, err := activeSegment(walDirOf(dir))
	if err != nil {
		return err
	}
	floor := int64(0)
	if path == cs.syncedSeg {
		floor = cs.syncedSize
	}
	target := size - plan.LoseTail
	if target < floor {
		target = floor
	}
	return os.Truncate(path, target)
}

// activeSegment returns the path and size of the highest-based WAL
// segment file.
func activeSegment(walDir string) (string, int64, error) {
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return "", 0, err
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", 0, fmt.Errorf("chaos: no segments in %s", walDir)
	}
	sort.Strings(names)
	path := filepath.Join(walDir, names[len(names)-1])
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, fi.Size(), nil
}

// scatterCheckpointDebris litters the checkpoint directory with what a
// crash mid-save leaves behind — a torn temp file the rename never
// committed — plus a stray file no save writes. Recovery must ignore
// both (the rename of MANIFEST.json is the commit point).
func scatterCheckpointDebris(cpDir string) error {
	if err := os.MkdirAll(cpDir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct{ name, data string }{
		{"MANIFEST.json.tmp", `{"version": 2, "seq": 99, "torn`},
		{"cp-000998-delta.json", `{"queries": "not a checkpoint"}`},
	} {
		if err := os.WriteFile(filepath.Join(cpDir, f.name), []byte(f.data), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runRecovered reopens the directory, recovers the engine from its
// checkpoints, resumes ingestion at the manifest offsets, re-produces
// any acknowledged records the loss window ate, finishes the stream
// and shuts down cleanly.
func runRecovered(dir string, plan RecoveryPlan, events []event, cs crashState, rep *RecoveryReport) error {
	if plan.Kill == KillMidRecovery {
		// First recovery attempt: opened, half-used, abandoned without
		// any close — the second attempt below must not notice.
		b0, err := queue.OpenDurable(queueDirOf(dir), plan.durableConfig())
		if err != nil {
			return fmt.Errorf("first recovery: %w", err)
		}
		discard := map[string]map[int64]Instant{}
		if _, _, err := engine.Recover(cpDirOf(dir), resultRecorder(discard), engine.WithParallelism(1)); err != nil && !errors.Is(err, engine.ErrNoCheckpoint) {
			return fmt.Errorf("first recovery: %w", err)
		}
		_ = b0 // abandoned
	}

	b, err := queue.OpenDurable(queueDirOf(dir), plan.durableConfig())
	if err != nil {
		return err
	}
	eng, info, err := engine.Recover(cpDirOf(dir), resultRecorder(rep.Post), engine.WithParallelism(1))
	var applied []int64
	switch {
	case err == nil:
		rep.Recovered = true
		rep.CheckpointSeq = info.Seq
		applied = info.Offsets[topicEvents]
		rep.ReplayFrom = append([]int64(nil), applied...)
	case errors.Is(err, engine.ErrNoCheckpoint):
		// Crash before the first checkpoint: cold start, full replay.
		eng = engine.New(engine.WithParallelism(1))
		if err := registerRecovery(plan, eng, rep.Post); err != nil {
			return err
		}
	default:
		return err
	}
	connOpts := []ingest.ConnectorOption{ingest.WithDeadLetter(topicDLQ)}
	if applied != nil {
		connOpts = append(connOpts, ingest.WithAppliedOffsets(applied))
	}
	conn, err := ingest.NewConnector(b, topicEvents, eng.Push, connOpts...)
	if err != nil {
		return err
	}
	ck, err := eng.NewCheckpointer(cpDirOf(dir))
	if err != nil {
		return err
	}

	end, err := b.EndOffset(topicEvents, 0)
	if err != nil {
		return err
	}
	rep.LogEnd = end
	if end < cs.produced {
		rep.Reproduced = cs.produced - end
	}

	// Continue the stream: the producer re-sends acknowledged records
	// the loss window ate (identical payloads land at their original
	// offsets, so offsets stay stable) and then everything it never got
	// to produce.
	delivered, lastCk := 0, 0
	deliver := func(max int) error {
		n, err := conn.Poll(max)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := eng.AdvanceTo(eng.Now()); err != nil {
			return err
		}
		delivered += n
		if delivered-lastCk >= plan.CheckpointEvery {
			if err := b.SyncWAL(); err != nil {
				return err
			}
			if err := ck.Save(map[string][]int64{topicEvents: conn.AppliedOffsets()}); err != nil {
				return err
			}
			lastCk = delivered
		}
		return nil
	}
	for i := end; i < int64(len(events)); i++ {
		r, err := b.Produce(topicEvents, "", events[i].payload, events[i].ts)
		if err != nil {
			return err
		}
		if r.Offset != i {
			return fmt.Errorf("re-produced event %d landed at offset %d", i, r.Offset)
		}
		if (i+1)%int64(plan.PollEvery) == 0 {
			if err := deliver(plan.BatchSize); err != nil {
				return err
			}
		}
	}
	for {
		n, err := conn.Poll(64)
		if err != nil {
			return err
		}
		if n > 0 {
			if err := eng.AdvanceTo(eng.Now()); err != nil {
				return err
			}
			continue
		}
		lag, err := conn.Consumer().Lag()
		if err != nil {
			return err
		}
		if lag == 0 && conn.Pending() == 0 {
			break
		}
	}
	// Flush trailing windows, checkpoint once more, close for real.
	if len(events) > 0 {
		if err := eng.AdvanceTo(events[len(events)-1].ts.Add(12 * time.Second)); err != nil {
			return err
		}
	}
	if err := b.SyncWAL(); err != nil {
		return err
	}
	if err := ck.Save(map[string][]int64{topicEvents: conn.AppliedOffsets()}); err != nil {
		return err
	}
	rep.Duplicates = conn.Duplicates()
	return b.CloseDurable()
}

// runOracle replays the full stream on a plain in-memory engine with
// no broker, no checkpoints and no crash — the ground truth.
func runOracle(plan RecoveryPlan, events []event, into map[string]map[int64]Instant) error {
	eng := engine.New(engine.WithParallelism(1))
	if err := registerRecovery(plan, eng, into); err != nil {
		return err
	}
	for _, ev := range events {
		g, ts, err := ingest.Decode(ev.payload)
		if err != nil {
			return err
		}
		if err := eng.Push(g, ts); err != nil {
			return err
		}
		if err := eng.AdvanceTo(eng.Now()); err != nil {
			return err
		}
	}
	if len(events) == 0 {
		return nil
	}
	return eng.AdvanceTo(events[len(events)-1].ts.Add(12 * time.Second))
}

// Verify is the crash-recovery differential oracle:
//
//  1. Acknowledged records may only be lost (and re-produced) under a
//     lossy fsync policy, and post-recovery redelivery must never
//     reach the engine twice (dedup suppresses it).
//  2. An instant emitted on both sides of the crash must carry the
//     same rows — re-emission is allowed (the client sees at-least-
//     once delivery of instants), contradiction is not.
//  3. The union of pre- and post-crash instants must be bag-identical
//     to the uncrashed oracle: nothing lost, nothing invented.
func (r *RecoveryReport) Verify() error {
	if r.Reproduced > 0 && r.Plan.Fsync == wal.FsyncAlways {
		return fmt.Errorf("chaos: %d acknowledged records lost under fsync=always", r.Reproduced)
	}
	if r.Duplicates != 0 {
		return fmt.Errorf("chaos: %d redeliveries reached dedup — recovered offsets were not sought correctly", r.Duplicates)
	}
	union := map[string]map[int64]Instant{}
	put := func(name string, at int64, in Instant) {
		qr := union[name]
		if qr == nil {
			qr = map[int64]Instant{}
			union[name] = qr
		}
		qr[at] = in
	}
	for name, m := range r.Pre {
		for at, in := range m {
			put(name, at, in)
		}
	}
	r.ReEmitted = 0
	for name, m := range r.Post {
		for at, in := range m {
			if prev, ok := union[name][at]; ok {
				r.ReEmitted++
				if !equalRows(prev.Rows, in.Rows) {
					return fmt.Errorf("chaos: query %s at %s: pre-crash rows %v contradict post-recovery rows %v",
						name, time.Unix(0, at).UTC().Format(time.RFC3339), prev.Rows, in.Rows)
				}
				continue
			}
			put(name, at, in)
		}
	}
	if len(union) != len(r.Oracle) {
		return fmt.Errorf("chaos: crashed run answered %d queries, oracle %d", len(union), len(r.Oracle))
	}
	var instants int
	for name, om := range r.Oracle {
		gm := union[name]
		for at, oi := range om {
			instants++
			gi, ok := gm[at]
			if !ok {
				return fmt.Errorf("chaos: query %s: instant %s lost across the crash",
					name, time.Unix(0, at).UTC().Format(time.RFC3339))
			}
			if !equalRows(gi.Rows, oi.Rows) {
				return fmt.Errorf("chaos: query %s at %s: crashed-run rows %v != oracle rows %v",
					name, time.Unix(0, at).UTC().Format(time.RFC3339), gi.Rows, oi.Rows)
			}
		}
		for at := range gm {
			if _, ok := om[at]; !ok {
				return fmt.Errorf("chaos: query %s: instant %s emitted but never evaluated by the oracle",
					name, time.Unix(0, at).UTC().Format(time.RFC3339))
			}
		}
	}
	if instants == 0 {
		return fmt.Errorf("chaos: oracle produced no evaluation instants — degenerate run")
	}
	return nil
}
