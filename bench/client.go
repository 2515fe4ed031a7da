package main

// client.go is the load generator's two connections: one posts events,
// one polls results. Each is an http.Client pinned to a single TCP
// connection, so the server sees exactly one producer and one consumer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // response body, reused: the owner is one goroutine
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// retarget points the connection at a restarted server.
func (c *conn) retarget(base string) {
	c.hc.CloseIdleConnections()
	c.base = base
}

// do sends one request and returns the status and the body, which is
// valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// postRec is one POST /events as the poster saw it.
type postRec struct {
	first, n        int       // events [first, first+n)
	due, sent, done time.Time // due == sent in the closed loop
	bytes           int
	status          int // 0: transport error
}

// polledResult is the part of a buffered result the harness reads while
// timing; rows stay raw until the oracle needs them.
type polledResult struct {
	Seq     int64           `json:"seq"`
	At      time.Time       `json:"at"`
	Skipped bool            `json:"skipped"`
	Rows    json.RawMessage `json:"rows"`
}

// probe is the poller's view of one polled query.
type probe struct {
	name  string
	since int64

	seen    []time.Time    // first poll that showed instant i
	rows    map[int][]byte // raw rows of the instants the oracle samples
	skipped int            // results marked skipped (shed by overload protection)
	gaps    int64          // sequence numbers jumped over: results the ring dropped
	strays  int            // results at no generated instant
	dupDiff int            // durable replay re-emitted an instant with different rows
	bytes   int64
}

// pollRec is one GET .../results, kept only in a traced run.
type pollRec struct {
	start, end time.Time
}

// poller polls every probe each tick on one connection.
type poller struct {
	c      *conn
	slide  time.Duration
	keep   map[int]bool // instants whose rows the oracle wants
	replay bool         // durable: a restarted server re-emits instants; they must equal the originals

	mu      sync.Mutex
	probes  []*probe
	count   []int       // probes that have seen instant i
	visible []time.Time // when the last probe saw instant i
	non2xx  int
	errs    int

	trace       bool
	polls       []pollRec
	visiblePoll []int     // index into polls of the GET that made instant i visible; -1 when not traced
	intervals   []float64 // ms between tick starts

	stop chan struct{}
	done chan struct{}
}

func newPoller(base string, names []string, total int, slide time.Duration, keep map[int]bool, replay bool) *poller {
	p := &poller{c: newConn(base), slide: slide, keep: keep, replay: replay,
		count: make([]int, total), visible: make([]time.Time, total), visiblePoll: make([]int, total)}
	for i := range p.visiblePoll {
		p.visiblePoll[i] = -1
	}
	for _, n := range names {
		p.probes = append(p.probes, &probe{name: n, seen: make([]time.Time, total), rows: map[int][]byte{}})
	}
	return p
}

// run starts polling; halt stops it and waits. A restarted server
// numbers its rings from 1 again, so every start polls from seq 0.
func (p *poller) run() {
	for _, pr := range p.probes {
		pr.since = 0
	}
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		next := time.Now()
		last := time.Time{}
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			now := time.Now()
			if !last.IsZero() {
				p.mu.Lock()
				p.intervals = append(p.intervals, float64(now.Sub(last))/1e6)
				p.mu.Unlock()
			}
			last = now
			for i := range p.probes {
				p.pollOne(i)
			}
			next = next.Add(pollEvery)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now() // a slow round does not owe the schedule catch-up polls
			}
		}
	}()
}

func (p *poller) setTrace(on bool) {
	p.mu.Lock()
	p.trace = on
	p.mu.Unlock()
}

func (p *poller) halt() {
	close(p.stop)
	<-p.done
}

func (p *poller) pollOne(i int) {
	pr := p.probes[i]
	t0 := time.Now()
	status, body, err := p.c.do(http.MethodGet, fmt.Sprintf("/queries/%s/results?since=%d", pr.name, pr.since), nil)
	t1 := time.Now()
	var rs []polledResult
	if err == nil && ok2xx(status) {
		err = json.Unmarshal(body, &rs)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.errs++
		return
	}
	if !ok2xx(status) {
		p.non2xx++
		return
	}
	poll := -1
	if p.trace {
		p.polls = append(p.polls, pollRec{start: t0, end: t1})
		poll = len(p.polls) - 1
	}
	pr.bytes += int64(len(body))
	for _, r := range rs {
		if r.Seq > pr.since+1 {
			pr.gaps += r.Seq - pr.since - 1
		}
		pr.since = r.Seq
		if r.Skipped {
			pr.skipped++
		}
		off := r.At.Sub(streamStart)
		idx := int(off / p.slide)
		if off < 0 || off%p.slide != 0 || idx >= len(pr.seen) {
			pr.strays++
			continue
		}
		if !pr.seen[idx].IsZero() {
			// Re-emitted after a restart. A durable server recovered the
			// emission state, so the replayed result must be the same bag;
			// an in-memory server re-registered on a partial window and
			// its replays are not comparable.
			if orig, ok := pr.rows[idx]; ok && p.replay && !sameBag(orig, r.Rows) {
				pr.dupDiff++
			}
			continue
		}
		pr.seen[idx] = t1
		if p.keep[idx] {
			pr.rows[idx] = append([]byte(nil), r.Rows...)
		}
		p.count[idx]++
		if p.count[idx] == len(p.probes) {
			p.visible[idx] = t1
			p.visiblePoll[idx] = poll
		}
	}
}

// waitVisible blocks until every probe has shown instant idx and
// returns when the last one did.
func (p *poller) waitVisible(idx int, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		t := p.visible[idx]
		p.mu.Unlock()
		if !t.IsZero() {
			return t, nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("instant %d not visible on every probe after %s", idx, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
