package ingest

import (
	"fmt"
	"sync/atomic"
	"time"

	"seraph/internal/graphstore"
	"seraph/internal/metrics"
	"seraph/internal/pg"
	"seraph/internal/queue"
	"seraph/internal/value"
)

// StreamSink receives decoded stream elements in timestamp order.
// engine.Engine's Push method satisfies this signature through a small
// adapter at the call site.
type StreamSink func(g *pg.Graph, ts time.Time) error

// Connector pumps events from a broker topic into a stream sink
// (continuous engine) — the Kafka connector of the paper's pipeline
// (Figure 2). A persistent merged graph, the figure's Neo4j side, is
// built by calling MergeInto on the decoded events.
type Connector struct {
	broker   *queue.Broker
	consumer *queue.Consumer
	sink     StreamSink

	eventsDelivered int

	// Fault handling (see overload.go). pending holds fetched-but-
	// undelivered records after a deadline or retry-budget abort — they
	// are delivered, exactly once each, before anything new is polled.
	// applied tracks the next undelivered offset per partition so
	// at-least-once redelivery (consumer rewind after a crash) is
	// deduplicated instead of double-applied.
	deadline    time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	dlqTopic    string
	now         func() time.Time
	sleep       func(time.Duration)
	pending     []queue.Record
	applied     map[int]int64

	// Read from other goroutines (Server.IngestQueueStats) while the
	// delivering goroutine updates them.
	deadlettered atomic.Int64
	duplicates   atomic.Int64
	retries      atomic.Int64

	mDeadletter *metrics.Counter
	mDelivered  *metrics.Counter
	mDuplicates *metrics.Counter
	mRetries    *metrics.Counter
	mLag        *metrics.Gauge
}

// NewConnector creates a connector consuming topic from b.
func NewConnector(b *queue.Broker, topic string, sink StreamSink, opts ...ConnectorOption) (*Connector, error) {
	consumer, err := queue.NewConsumer(b, "seraph-connector", topic)
	if err != nil {
		return nil, err
	}
	c := &Connector{
		broker:      b,
		consumer:    consumer,
		sink:        sink,
		applied:     map[int]int64{},
		backoffBase: time.Millisecond,
		backoffMax:  250 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Poll consumes up to max pending events, delivering each to the sink.
// It returns the number of events delivered. Records retained by a
// previous deadline or retry-budget abort are delivered before anything
// new is polled.
func (c *Connector) Poll(max int) (int, error) {
	recs := c.pending
	c.pending = nil
	if len(recs) == 0 {
		var err error
		recs, err = c.consumer.Poll(max)
		if err != nil {
			return 0, err
		}
	}
	return c.deliver(recs)
}

// deliver decodes and dispatches fetched records.
//
// Fault handling (all opt-in, see overload.go): the batch runs under a
// wall-clock deadline; a record the engine rejects transiently
// (admission control) is retried with exponential backoff; a poison
// record — undecodable or permanently rejected — is quarantined to the
// dead-letter topic; and records redelivered after a consumer rewind
// are skipped by offset deduplication. On a deadline or retry-budget
// abort the undelivered remainder is retained in c.pending and the
// count of records that were delivered is still returned alongside the
// transient error.
func (c *Connector) deliver(recs []queue.Record) (int, error) {
	start := c.wallNow()
	delivered := 0
	for i, rec := range recs {
		if c.deadline > 0 && c.wallNow().Sub(start) > c.deadline {
			c.pending = append(c.pending, recs[i:]...)
			return delivered, fmt.Errorf("ingest: delivered %d of %d records: %w",
				delivered, len(recs), ErrBatchDeadline)
		}
		if next, ok := c.applied[rec.Partition]; ok && rec.Offset < next {
			c.duplicates.Add(1)
			c.mDuplicates.Inc()
			continue
		}
		g, ts, err := Decode(rec.Value)
		if err != nil {
			err = fmt.Errorf("ingest: record %s[%d]@%d: %w", rec.Topic, rec.Partition, rec.Offset, err)
			if !c.quarantine(rec, err) {
				return delivered, err
			}
			c.applied[rec.Partition] = rec.Offset + 1
			continue
		}
		if c.sink != nil {
			if err := c.pushWithRetry(g, ts); err != nil {
				if queue.IsTransient(err) {
					// The engine is overloaded, not the record: retain it
					// and everything after it for the next Poll.
					c.pending = append(c.pending, recs[i:]...)
					return delivered, err
				}
				if !c.quarantine(rec, err) {
					return delivered, err
				}
				c.applied[rec.Partition] = rec.Offset + 1
				continue
			}
		}
		c.applied[rec.Partition] = rec.Offset + 1
		c.eventsDelivered++
		c.mDelivered.Inc()
		delivered++
	}
	if lag, err := c.consumer.Lag(); err == nil {
		c.mLag.Set(lag + int64(len(c.pending)))
	}
	return delivered, nil
}

// pushWithRetry delivers one element to the sink, retrying transient
// rejections with exponential backoff up to the configured budget.
func (c *Connector) pushWithRetry(g *pg.Graph, ts time.Time) error {
	backoff := c.backoffBase
	for attempt := 0; ; attempt++ {
		err := c.sink(g, ts)
		if err == nil || !queue.IsTransient(err) || attempt >= c.maxRetries {
			return err
		}
		c.retries.Add(1)
		c.mRetries.Inc()
		c.doSleep(backoff)
		if backoff < c.backoffMax {
			backoff *= 2
			if backoff > c.backoffMax {
				backoff = c.backoffMax
			}
		}
	}
}

// Drain polls until the topic is exhausted.
func (c *Connector) Drain() (int, error) {
	total := 0
	for {
		n, err := c.Poll(1024)
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
		total += n
	}
}

// EventsDelivered returns the number of events delivered so far.
func (c *Connector) EventsDelivered() int { return c.eventsDelivered }

// Consumer exposes the underlying consumer (the chaos harness rewinds
// it to model redelivery after a crash).
func (c *Connector) Consumer() *queue.Consumer { return c.consumer }

// MergeInto merges event graph g into store under the unique name
// assumption: vertices and relationships sharing an identifier are
// merged into single entities (labels union, properties union), the
// MERGE behaviour described in Section 2.
func MergeInto(store *graphstore.Store, g *pg.Graph) error {
	for _, n := range g.Nodes() {
		existing := store.Node(n.ID)
		if existing == nil {
			props := make(map[string]value.Value, len(n.Props))
			for k, v := range n.Props {
				props[k] = v
			}
			store.AddNode(&value.Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: props})
			continue
		}
		for _, l := range n.Labels {
			if !existing.HasLabel(l) {
				store.AddLabel(existing, l)
			}
		}
		for k, v := range n.Props {
			existing.Props[k] = v
		}
	}
	for _, r := range g.Rels() {
		existing := store.Rel(r.ID)
		if existing == nil {
			props := make(map[string]value.Value, len(r.Props))
			for k, v := range r.Props {
				props[k] = v
			}
			if err := store.AddRel(&value.Relationship{
				ID: r.ID, StartID: r.StartID, EndID: r.EndID, Type: r.Type, Props: props,
			}); err != nil {
				return err
			}
			continue
		}
		if existing.StartID != r.StartID || existing.EndID != r.EndID || existing.Type != r.Type {
			return fmt.Errorf("ingest: relationship %d conflicts with existing topology", r.ID)
		}
		for k, v := range r.Props {
			existing.Props[k] = v
		}
	}
	return nil
}
