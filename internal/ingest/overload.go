package ingest

// overload.go is the connector's fault-handling layer: per-batch
// deadlines, retry with exponential backoff on transient engine
// rejection (engine.ErrBusy under admission control, queue.ErrFull on
// a bounded topic), poison-record quarantine to a dead-letter topic,
// and offset-based deduplication so at-least-once redelivery never
// applies a record twice. Everything is off by default; the plain
// connector behaves exactly as before.

import (
	"time"

	"seraph/internal/metrics"
	"seraph/internal/queue"
)

// ErrBatchDeadline is returned by Poll/Drain when a batch exceeded its
// processing deadline (WithBatchDeadline). It is transient: the
// unprocessed remainder of the batch is retained and delivered by the
// next Poll.
var ErrBatchDeadline error = transientErr("ingest: batch deadline exceeded")

type transientErr string

func (e transientErr) Error() string { return string(e) }

// Transient marks the error as retryable (see queue.IsTransient).
func (transientErr) Transient() bool { return true }

// Metric names exposed by the connector (see DESIGN.md "Overload &
// fault model").
const (
	mDeadletter    = "seraph_deadletter_total"
	mIngestLag     = "seraph_ingest_lag_records"
	mIngestDeliv   = "seraph_ingest_delivered_total"
	mIngestDupes   = "seraph_ingest_duplicates_total"
	mIngestRetries = "seraph_ingest_retries_total"
)

// ConnectorOption configures a Connector's fault handling.
type ConnectorOption func(*Connector)

// WithBatchDeadline bounds the wall-clock time one Poll spends
// delivering a batch. When exceeded, delivery stops, the remainder is
// retained for the next Poll, and Poll returns ErrBatchDeadline along
// with the number of records it did deliver. d <= 0 disables the
// deadline.
func WithBatchDeadline(d time.Duration) ConnectorOption {
	return func(c *Connector) { c.deadline = d }
}

// WithSinkRetry retries transient sink rejections (engine admission
// control, full downstream queues) with exponential backoff: base
// doubling up to max, at most maxRetries sleeps per record. When the
// budget is exhausted the record and the rest of its batch are
// retained for the next Poll and the transient error is returned.
// The default is no retries: a transient rejection surfaces
// immediately (the batch is still retained).
func WithSinkRetry(maxRetries int, base, max time.Duration) ConnectorOption {
	return func(c *Connector) { c.maxRetries, c.backoffBase, c.backoffMax = maxRetries, base, max }
}

// WithDeadLetter quarantines poison records — undecodable payloads,
// merge conflicts, permanent sink rejections such as out-of-order
// timestamps — to the named topic instead of aborting the run. The
// topic is created on first use if it does not exist. Without this
// option a poison record aborts delivery, the connector's historical
// behaviour.
func WithDeadLetter(topic string) ConnectorOption {
	return func(c *Connector) { c.dlqTopic = topic }
}

// WithConnectorClock injects the time source and sleep function used
// for batch deadlines and retry backoff (defaults time.Now and
// time.Sleep). Tests and the chaos harness substitute a virtual clock.
func WithConnectorClock(now func() time.Time, sleep func(time.Duration)) ConnectorOption {
	return func(c *Connector) { c.now, c.sleep = now, sleep }
}

// WithAppliedOffsets seeds the connector's per-partition applied
// positions (the next undelivered offset for each partition) and seeks
// the consumer there. A process recovering from a checkpoint passes
// the manifest's offsets so records the checkpointed state already
// reflects are deduplicated instead of double-applied — replay from a
// durable log stays exactly-once across the restart.
func WithAppliedOffsets(offsets []int64) ConnectorOption {
	return func(c *Connector) {
		for p, off := range offsets {
			c.applied[p] = off
			c.consumer.Seek(p, off)
		}
	}
}

// AppliedOffsets returns, per partition, the next offset the connector
// has not yet applied — the positions a checkpoint manifest must
// record for exactly-once recovery. Partitions the connector never saw
// report 0.
func (c *Connector) AppliedOffsets() []int64 {
	n, err := c.broker.Partitions(c.consumer.Topic())
	if err != nil {
		n = 0
	}
	for p := range c.applied {
		if p+1 > n {
			n = p + 1
		}
	}
	out := make([]int64, n)
	for p := range out {
		out[p] = c.applied[p]
	}
	return out
}

// WithIngestMetrics records connector counters into reg:
// seraph_deadletter_total, seraph_ingest_delivered_total,
// seraph_ingest_duplicates_total, seraph_ingest_retries_total and the
// seraph_ingest_lag_records gauge.
func WithIngestMetrics(reg *metrics.Registry) ConnectorOption {
	return func(c *Connector) {
		c.mDeadletter = reg.Counter(mDeadletter, "Poison records quarantined to the dead-letter topic.")
		c.mDelivered = reg.Counter(mIngestDeliv, "Records decoded and applied to the sink.")
		c.mDuplicates = reg.Counter(mIngestDupes, "Redelivered records skipped by offset deduplication.")
		c.mRetries = reg.Counter(mIngestRetries, "Backoff retries of transient sink rejections.")
		c.mLag = reg.Gauge(mIngestLag, "Records behind the head of the input topic.")
	}
}

// Deadlettered returns the number of poison records quarantined so
// far.
func (c *Connector) Deadlettered() int64 { return c.deadlettered.Load() }

// Duplicates returns the number of redelivered records skipped by
// offset deduplication.
func (c *Connector) Duplicates() int64 { return c.duplicates.Load() }

// Retries returns the number of backoff retries performed against the
// sink.
func (c *Connector) Retries() int64 { return c.retries.Load() }

// Pending returns the number of fetched-but-undelivered records
// retained after a deadline or retry-budget abort.
func (c *Connector) Pending() int { return len(c.pending) }

// quarantine routes a poison record to the dead-letter topic. It
// reports false when no dead-letter topic is configured (the caller
// aborts with the original error, preserving historical behaviour).
func (c *Connector) quarantine(rec queue.Record, cause error) bool {
	if c.dlqTopic == "" {
		return false
	}
	if _, err := c.broker.Partitions(c.dlqTopic); err != nil {
		if err := c.broker.CreateTopic(c.dlqTopic, 1); err != nil {
			return false
		}
	}
	// Best effort: the payload is preserved verbatim so the record can
	// be replayed after the cause (schema change, clock skew) is fixed.
	if _, err := c.broker.Produce(c.dlqTopic, cause.Error(), rec.Value, rec.Time); err != nil {
		return false
	}
	c.deadlettered.Add(1)
	c.mDeadletter.Inc()
	return true
}

func (c *Connector) wallNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Connector) doSleep(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}
