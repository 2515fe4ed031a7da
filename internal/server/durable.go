package server

// durable.go wires the server to the durability stack: POST /events
// lands in a write-ahead-logged topic (internal/queue OpenDurable), the
// engine checkpoints into <dir>/checkpoints every N delivered events
// (internal/engine Checkpointer), and OpenDurable on boot rebuilds
// engine state as last checkpoint + replay-from-offset instead of
// replaying the stream from zero. The checkpoint manifest's applied
// offsets seed the connector's deduplication, so delivery stays
// exactly-once across a crash; records below the checkpointed offsets
// are compacted out of the log after every save.
//
// The topology index (topology.go) is not part of engine checkpoints. A
// restarted server records the recovered window into it (finishInit),
// and the connector records the log records past the checkpoint as it
// replays them, before any new event is admitted.

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/metrics"
	"seraph/internal/pg"
	"seraph/internal/queue"
	"seraph/internal/wal"
)

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Dir is the data directory; checkpoints live under
	// <dir>/checkpoints, the event log under <dir>/queue.
	Dir string
	// Fsync is the WAL sync policy (default wal.FsyncAlways). Policies
	// other than always trade a bounded loss window for throughput;
	// checkpoints always sync regardless.
	Fsync wal.Policy
	// SyncEvery is the wal.FsyncInterval cadence (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes is the WAL segment rotation size (default 4 MiB).
	// Compaction is segment-granular, so smaller segments reclaim
	// space sooner at the cost of more files.
	SegmentBytes int64
	// CheckpointEvery checkpoints the engine after this many delivered
	// events (default 256).
	CheckpointEvery int
	// QueueCapacity / QueuePolicy bound the ingest topic exactly like
	// EnableIngestQueue. Capacity 0 means unbounded.
	QueueCapacity int
	QueuePolicy   queue.FullPolicy
}

// OpenDurable opens a server backed by a data directory: events are
// logged before they are acknowledged, the engine checkpoints
// periodically, and a reopened directory resumes from checkpoint +
// log replay. Ingestion runs in queue mode (POST /events enqueues; a
// background connector delivers), so EnableIngestQueue must not also
// be called. Engine options are applied on top of any checkpoint-
// derived configuration; explicitly conflicting options are rejected
// exactly as by engine.Restore.
func OpenDurable(cfg DurableConfig, opts ...engine.Option) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: durable mode needs a data directory")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 256
	}
	cpDir := filepath.Join(cfg.Dir, "checkpoints")

	s := &Server{buffers: map[string]*resultRing{}}
	extra := append([]engine.Option{
		engine.WithMetrics(metrics.NewRegistry()),
		engine.WithLogger(slog.Default()),
	}, opts...)
	var applied []int64
	recovered := false
	eng, info, err := engine.Recover(cpDir, func(name string) engine.Sink {
		ring := &resultRing{}
		s.buffers[name] = ring
		return ring.add
	}, extra...)
	switch {
	case err == nil:
		s.engine = eng
		applied = info.Offsets[ingestTopic]
		recovered = true
	case errors.Is(err, engine.ErrNoCheckpoint):
		s.engine = engine.New(extra...)
	default:
		return nil, err
	}
	s.finishInit()

	b, err := queue.OpenDurable(filepath.Join(cfg.Dir, "queue"), queue.DurableConfig{
		Fsync:        cfg.Fsync,
		SyncEvery:    cfg.SyncEvery,
		SegmentBytes: cfg.SegmentBytes,
		WAL:          wal.Options{Metrics: s.reg},
	})
	if err != nil {
		return nil, err
	}
	if err := b.CreateTopicWith(ingestTopic, queue.TopicConfig{
		Partitions: 1,
		Capacity:   cfg.QueueCapacity,
		Policy:     cfg.QueuePolicy,
	}); err != nil {
		b.CloseDurable()
		return nil, err
	}
	connOpts := []ingest.ConnectorOption{
		ingest.WithDeadLetter(ingestDLQTopic),
		ingest.WithSinkRetry(8, time.Millisecond, 250*time.Millisecond),
		ingest.WithIngestMetrics(s.reg),
	}
	if applied != nil {
		// Resume ingestion exactly where the checkpoint left it: seek
		// past records the recovered state already reflects and
		// deduplicate any the log replays below that watermark.
		connOpts = append(connOpts, ingest.WithAppliedOffsets(applied))
	}
	iq := &ingestQueue{
		broker:  b,
		done:    make(chan struct{}),
		ckEvery: cfg.CheckpointEvery,
	}
	conn, err := ingest.NewConnector(b, ingestTopic, func(g *pg.Graph, ts time.Time) error {
		err := s.engine.Push(g, ts)
		if err == nil && iq.replaying {
			s.topo.record(g, ts)
		}
		return err
	}, connOpts...)
	if err != nil {
		b.CloseDurable()
		return nil, err
	}
	iq.conn = conn
	if iq.ck, err = s.engine.NewCheckpointer(cpDir); err != nil {
		b.CloseDurable()
		return nil, err
	}
	if recovered {
		s.log.Info("recovered from data directory",
			"dir", cfg.Dir,
			"checkpoint_seq", info.Seq,
			"queries", len(s.engine.Queries()),
			"recovery", info.Duration,
		)
	}
	s.iq = iq
	// The log past the checkpoint holds events admitted before the
	// restart, which the topology index must know before a new one is
	// admitted. The connector replays them first and records each into
	// the index; admit waits on the index lock, held until the replay is
	// done (drainIngestQueue).
	if lag, err := conn.Consumer().Lag(); err == nil && lag > 0 {
		iq.replaying = true
		s.topo.mu.Lock()
	}
	go s.drainIngestQueue(iq)
	return s, nil
}

// checkpointDurable saves an engine checkpoint with the connector's
// applied offsets and compacts the event log below them. Runs on the
// drain goroutine (and once more from Close after it exits), so the
// Checkpointer is never used concurrently. Failures are logged, not
// fatal: the previous checkpoint stays valid and recovery just replays
// a longer log suffix.
func (s *Server) checkpointDurable(iq *ingestQueue) {
	// Barrier first: the offsets we persist must not run ahead of what
	// the log can replay after a crash (only relevant under fsync
	// policies other than always).
	if err := iq.broker.SyncWAL(); err != nil {
		s.log.Error("wal sync before checkpoint failed", "err", err)
		return
	}
	offsets := iq.conn.AppliedOffsets()
	if err := iq.ck.Save(map[string][]int64{ingestTopic: offsets}); err != nil {
		s.log.Error("checkpoint failed", "err", err)
		return
	}
	for p, off := range offsets {
		if err := iq.broker.CompactTopic(ingestTopic, p, off); err != nil {
			s.log.Warn("log compaction failed", "partition", p, "err", err)
		}
	}
}
