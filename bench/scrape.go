package main

// scrape.go reads the server's existing GET /metrics (Prometheus text
// format) from outside. Only traced runs scrape, and only at phase
// boundaries plus once a second: with 240 queries one scrape is a few
// megabytes.

import (
	"bufio"
	"bytes"
	"net/http"
	"strconv"
	"strings"
)

// series is one sample line: name, label pairs, value.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed exposition. Histogram buckets are dropped; their
// _sum and _count series are kept under those names.
type scrape []series

func parseMetrics(text []byte) scrape {
	var out scrape
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		id := line[:sp]
		s := series{name: id, value: v}
		if br := strings.IndexByte(id, '{'); br >= 0 && strings.HasSuffix(id, "}") {
			s.name = id[:br]
			s.labels = parseLabels(id[br+1 : len(id)-1])
		}
		if strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		out = append(out, s)
	}
	return out
}

// parseLabels splits `a="x",b="y"`. Values are quoted and may contain
// escaped quotes and commas.
func parseLabels(s string) map[string]string {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				val.WriteByte(rest[i])
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(rest[min(i+1, len(rest)):], ",")
	}
	return labels
}

// sum adds every series of a family; ok is false when the family is
// absent, which callers report as null rather than zero.
func (s scrape) sum(name string) (total float64, ok bool) {
	for _, x := range s {
		if x.name == name {
			total += x.value
			ok = true
		}
	}
	return total, ok
}

// byLabel returns one family's values keyed by a label.
func (s scrape) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, x := range s {
		if x.name == name {
			out[x.labels[label]] += x.value
		}
	}
	return out
}

func fetchMetrics(c *conn) (scrape, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if !ok2xx(status) {
		return nil, nil // no /metrics endpoint: every derived metric reads null
	}
	return parseMetrics(body), nil
}

// opt is a measurement that may be missing.
type opt struct {
	v  float64
	ok bool
}

func some(v float64) opt { return opt{v, true} }

// delta is after.sum(name) - before.sum(name), missing when the family
// is missing after.
func delta(before, after scrape, name string) opt {
	a, ok := after.sum(name)
	if !ok {
		return opt{}
	}
	b, _ := before.sum(name)
	return some(a - b)
}

func ratio(num, den opt) opt {
	if !num.ok || !den.ok || den.v == 0 {
		return opt{ok: num.ok && den.ok} // 0/0 work done: a measured zero, not a missing series
	}
	return some(num.v / den.v)
}
