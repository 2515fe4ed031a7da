package server

// overload.go is the HTTP facade's overload behaviour: ErrBusy from
// engine admission control surfaces as 429 + Retry-After, and
// EnableIngestQueue switches POST /events from synchronous push to an
// in-process bounded queue drained by a background connector with
// retry, backoff, and dead-letter quarantine.

import (
	"strconv"
	"time"

	"seraph/internal/engine"
	"seraph/internal/ingest"
	"seraph/internal/queue"
)

// ingestTopic and ingestDLQTopic are the queue-mode topic names; the
// DLQ holds poison events (undecodable, out-of-order) with the cause
// as the record key.
const (
	ingestTopic    = "events"
	ingestDLQTopic = "events-dlq"
)

// SetRetryAfter configures the Retry-After hint attached to 429
// responses (default 1s). Clients should back off at least this long
// before retrying a rejected batch.
func (s *Server) SetRetryAfter(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retryAfter = d
}

// retryAfterSeconds renders the hint in whole seconds, minimum 1, as
// the Retry-After header requires.
func (s *Server) retryAfterSeconds() string {
	s.mu.Lock()
	d := s.retryAfter
	s.mu.Unlock()
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ingestQueue is the queue-mode machinery: a bounded in-process topic
// fed by POST /events and drained by a connector goroutine.
type ingestQueue struct {
	broker *queue.Broker
	conn   *ingest.Connector
	done   chan struct{}

	// Durable mode (see durable.go): ck checkpoints the engine every
	// ckEvery delivered events; sinceCk counts deliveries since the
	// last save (drain-goroutine only).
	ck      *engine.Checkpointer
	ckEvery int
	sinceCk int

	// replaying is set while the connector replays the log past the
	// checkpoint at boot; the drain goroutine then holds s.topo.mu
	// (durable.go). Drain-goroutine only once it runs.
	replaying bool
}

// EnableIngestQueue switches POST /events to asynchronous ingestion:
// events are decoded and checked against the topology index, then
// enqueued on a bounded in-process topic (capacity records, full-queue
// policy as given) instead of being pushed synchronously. A background
// connector drains the topic into the engine with backoff on transient
// rejection and quarantines poison events (for example out-of-order
// timestamps from interleaved clients) to the events-dlq topic. With
// PolicyReject, a full queue turns POST /events into 429 + Retry-After.
//
// Call before serving traffic, and Close on shutdown to drain the
// queue. Enabling twice is an error.
func (s *Server) EnableIngestQueue(capacity int, policy queue.FullPolicy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.iq != nil {
		return errBusyQueueExists
	}
	b := queue.NewBroker()
	if err := b.CreateTopicWith(ingestTopic, queue.TopicConfig{
		Partitions: 1,
		Capacity:   capacity,
		Policy:     policy,
	}); err != nil {
		return err
	}
	conn, err := ingest.NewConnector(b, ingestTopic, s.engine.Push,
		ingest.WithDeadLetter(ingestDLQTopic),
		ingest.WithSinkRetry(8, time.Millisecond, 250*time.Millisecond),
		ingest.WithIngestMetrics(s.reg),
	)
	if err != nil {
		return err
	}
	iq := &ingestQueue{broker: b, conn: conn, done: make(chan struct{})}
	s.iq = iq
	go s.drainIngestQueue(iq)
	return nil
}

var errBusyQueueExists = queueModeError("server: ingest queue already enabled")

type queueModeError string

func (e queueModeError) Error() string { return string(e) }

// drainIngestQueue pumps the bounded topic into the engine until the
// broker closes. Deliveries advance the virtual clock so evaluations
// fire; transient overload (admission control past the connector's
// retry budget) backs off and retries rather than dropping — the
// bounded topic is what pushes back on producers meanwhile.
func (s *Server) drainIngestQueue(iq *ingestQueue) {
	defer close(iq.done)
	defer s.endReplay(iq)
	for {
		n, err := iq.conn.PollBlocking(512)
		if iq.replaying && iq.conn.Pending() == 0 {
			if lag, lerr := iq.conn.Consumer().Lag(); lerr != nil || lag == 0 {
				s.endReplay(iq)
			}
		}
		if err != nil {
			if !queue.IsTransient(err) {
				s.log.Error("ingest queue delivery failed", "err", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n > 0 {
			if aerr := s.engine.AdvanceTo(s.engine.Now()); aerr != nil {
				s.log.Error("evaluation failed during queued ingest", "err", aerr)
			}
			if iq.ck != nil {
				iq.sinceCk += n
				if iq.sinceCk >= iq.ckEvery {
					s.checkpointDurable(iq)
					iq.sinceCk = 0
				}
			}
		}
		if n == 0 && err == nil {
			return // broker closed and fully drained
		}
	}
}

// endReplay releases the topology index once the boot replay is done.
func (s *Server) endReplay(iq *ingestQueue) {
	if iq.replaying {
		iq.replaying = false
		s.topo.mu.Unlock()
	}
}

// IngestQueueStats exposes the queue-mode counters for monitoring and
// tests: broker-side topic stats plus the connector's quarantine
// count. ok is false when queue mode is not enabled.
func (s *Server) IngestQueueStats() (st queue.TopicStats, deadlettered int64, ok bool) {
	s.mu.Lock()
	iq := s.iq
	s.mu.Unlock()
	if iq == nil {
		return queue.TopicStats{}, 0, false
	}
	st, _ = iq.broker.Stats(ingestTopic)
	return st, iq.conn.Deadlettered(), true
}

// Close shuts down the ingest queue (if enabled), draining buffered
// events into the engine before returning. Safe to call when queue
// mode is off.
func (s *Server) Close() error {
	s.mu.Lock()
	iq := s.iq
	s.iq = nil
	s.mu.Unlock()
	if iq == nil {
		return nil
	}
	iq.broker.Close()
	<-iq.done
	if iq.ck != nil {
		// Final checkpoint after the drain goroutine has exited, so the
		// next boot recovers without replaying the whole retained log.
		s.checkpointDurable(iq)
		return iq.broker.CloseDurable()
	}
	return nil
}
