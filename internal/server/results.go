package server

// results.go holds the per-query result ring and the JSON encoder behind
// GET /queries/{name}/results.
//
// A result is a time-annotated table (Def. 5.6) that never changes once
// emitted, so the ring encodes it exactly once, when the engine's sink
// delivers it, and keeps only the encoded bytes: no tables, maps or boxed
// values the garbage collector would have to scan. A poll is then the
// concatenation of the retained bodies.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"seraph/internal/engine"
	"seraph/internal/metrics"
	"seraph/internal/value"
)

// resultBufferSize bounds the per-query result ring.
const resultBufferSize = 1024

// resultRing is a circular buffer of encoded results. Sequence numbers
// are contiguous, so a slot's seq follows from its position alone.
type resultRing struct {
	mu      sync.Mutex
	seq     int64    // seq of the newest result; 0 before the first
	dropped int64    // results evicted by wrap-around
	bodies  [][]byte // grows lazily to resultBufferSize, then wraps
	head    int      // slot of the oldest result (0 until the ring wraps)
	scratch []byte   // encode buffer, reused across adds
	warned  bool     // the one wrap-around log line was written

	// name/server resolve the per-ring dropped-results counter and the
	// logger; both are bound after construction so rings built during
	// engine.Restore (before the registry is reachable) still report.
	name    string
	server  *Server
	dropCtr *metrics.Counter
}

// ringInfo is the /queries/{name} view of a ring: the newest and oldest
// retained sequence numbers plus the eviction count. A client that
// polled up to seq S missed results when lowest_seq > S+1.
type ringInfo struct {
	LatestSeq int64 `json:"latest_seq"`
	LowestSeq int64 `json:"lowest_seq"`
	Buffered  int   `json:"buffered"`
	Dropped   int64 `json:"dropped"`
}

func (r *resultRing) info() ringInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := ringInfo{LatestSeq: r.seq, Buffered: len(r.bodies), Dropped: r.dropped}
	if len(r.bodies) > 0 {
		info.LowestSeq = r.seq - int64(len(r.bodies)) + 1
	}
	return info
}

// add is the query's engine sink: it encodes res once and stores the
// bytes, overwriting the oldest slot when the ring is full.
func (r *resultRing) add(res engine.Result) {
	r.mu.Lock()
	r.seq++
	r.scratch = appendResult(r.scratch[:0], r.seq, res)
	body := bytes.Clone(r.scratch) // exact size: the ring retains it
	evicted := len(r.bodies) == resultBufferSize
	if evicted {
		r.bodies[r.head] = body
		r.head = (r.head + 1) % resultBufferSize
		r.dropped++
	} else {
		r.bodies = append(r.bodies, body)
	}
	warn := evicted && !r.warned && r.server != nil
	if warn {
		r.warned = true
	}
	ctr, srv, name := r.dropCtr, r.server, r.name
	r.mu.Unlock()
	if evicted {
		ctr.Add(1)
	}
	if warn {
		srv.log.Warn("result ring full: each new result now evicts the oldest",
			"query", name, "capacity", resultBufferSize,
			"counter", "seraph_result_ring_dropped_total")
	}
}

// after returns the encoded results with seq > since, oldest first. The
// bodies are never modified, so callers may use them after the lock is
// released.
func (r *resultRing) after(since int64) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.bodies))
	lowest := r.seq - n + 1
	var skip int64
	if since >= lowest {
		skip = since - lowest + 1
	}
	if skip >= n {
		return nil
	}
	out := make([][]byte, 0, n-skip)
	for i := skip; i < n; i++ {
		out = append(out, r.bodies[(r.head+int(i))%len(r.bodies)])
	}
	return out
}

// writeResults serves encoded results as one JSON array, the bytes
// json.NewEncoder writes for the equivalent slice of objects.
func writeResults(w http.ResponseWriter, bodies [][]byte) {
	size := len("[]\n") + max(len(bodies)-1, 0)
	for _, b := range bodies {
		size += len(b)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client went away; there is no one to tell.
	_, _ = io.WriteString(w, "[")
	for i, b := range bodies {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		_, _ = w.Write(b)
	}
	_, _ = io.WriteString(w, "]\n")
}

// appendResult appends the JSON object for one result, fields in the
// order clients have always received them.
func appendResult(b []byte, seq int64, res engine.Result) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"at":`...)
	b = appendTime(b, res.At)
	b = append(b, `,"win_start":`...)
	b = appendTime(b, res.Window.Start)
	b = append(b, `,"win_end":`...)
	b = appendTime(b, res.Window.End)
	b = append(b, `,"op":`...)
	b = appendString(b, res.Op.String())
	// Shed results may carry no table: no columns, no rows.
	var cols []string
	var rows [][]value.Value
	if res.Table != nil {
		cols, rows = res.Table.Cols, res.Table.Rows
	}
	b = append(b, `,"columns":`...)
	b = appendStrings(b, cols)
	b = append(b, `,"rows":`...)
	b = appendRows(b, cols, rows)
	// skipped marks an instant shed by overload protection: the query was
	// not evaluated there, so its empty rows mean "unknown", not "no matches".
	if res.Skipped {
		b = append(b, `,"skipped":true`...)
	}
	return append(b, '}')
}

// appendRows appends rows as a JSON array of objects keyed by column
// name. Keys come out sorted and, of duplicate column names (EMIT … AS
// win_start meets the column the engine appends), the last column
// wins — both as when each row is first built as a Go map.
func appendRows(b []byte, cols []string, rows [][]value.Value) []byte {
	order := make([]int, len(cols))
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(x, y int) int { return strings.Compare(cols[x], cols[y]) })
	keep := order[:0]
	for i, j := range order {
		if i+1 < len(order) && cols[order[i+1]] == cols[j] {
			continue
		}
		keep = append(keep, j)
	}
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for k, j := range keep {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendString(b, cols[j])
			b = append(b, ':')
			b = appendJSON(b, row[j])
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendJSON appends the JSON encoding of v: the bytes encoding/json
// writes for the value's natural Go form (maps with sorted keys,
// HTML-safe strings), except that the non-finite floats encoding/json
// refuses are written as the strings "NaN", "Infinity" and "-Infinity".
func appendJSON(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindBool:
		return strconv.AppendBool(b, v.Bool())
	case value.KindNumber:
		if v.IsInt() {
			return strconv.AppendInt(b, v.Int(), 10)
		}
		return appendFloat(b, v.Float())
	case value.KindString:
		return appendString(b, v.Str())
	case value.KindDateTime:
		return appendTime(b, v.DateTime())
	case value.KindDuration:
		return appendString(b, value.FormatDuration(v.Duration()))
	case value.KindList:
		b = append(b, '[')
		for i, e := range v.List() {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSON(b, e)
		}
		return append(b, ']')
	case value.KindMap:
		return appendMap(b, v.Map())
	case value.KindNode:
		return appendNode(b, v.Node())
	case value.KindRelationship:
		return appendRel(b, v.Relationship())
	case value.KindPath:
		p := v.Path()
		b = append(b, `{"nodes":[`...)
		for i, n := range p.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendNode(b, n)
		}
		b = append(b, `],"rels":[`...)
		for i, r := range p.Rels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRel(b, r)
		}
		return append(b, "]}"...)
	}
	return append(b, "null"...)
}

func appendNode(b []byte, n *value.Node) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, n.ID, 10)
	b = append(b, `,"labels":`...)
	b = appendStrings(b, n.Labels)
	b = append(b, `,"props":`...)
	b = appendMap(b, n.Props)
	return append(b, '}')
}

func appendRel(b []byte, r *value.Relationship) []byte {
	b = append(b, `{"end":`...)
	b = strconv.AppendInt(b, r.EndID, 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	b = append(b, `,"props":`...)
	b = appendMap(b, r.Props)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, r.StartID, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, r.Type)
	return append(b, '}')
}

// appendMap appends m as an object with sorted keys; a nil map is {}.
func appendMap(b []byte, m map[string]value.Value) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendJSON(b, m[k])
	}
	return append(b, '}')
}

// appendStrings appends ss as an array of strings; a nil slice is null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// appendFloat writes f the way encoding/json does (ES6 number
// formatting), with the non-finite values as strings.
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Shorten e-09 to e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// escaping: control characters, quote and backslash; <, > and & for
// HTML safety; U+2028 and U+2029; invalid UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
