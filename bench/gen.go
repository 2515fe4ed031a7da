package main

// gen.go builds every workload's inputs from the seed: the stream
// elements (kept as graphs for the oracle and the layer probes), their
// NDJSON wire lines (what the server sees), and the query texts. The
// server receives only these bytes; no generator runs while timing.

import (
	"fmt"
	"math/rand"
	"time"

	"seraph/internal/ingest"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
	"seraph/internal/workload"
)

// streamStart is the virtual timestamp of event 0. Event i is stamped
// streamStart + i*slide, so every event closes exactly one evaluation
// instant of every query of its workload.
var streamStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// querySpec is one registration: its name and a function rendering the
// text for a given STARTING AT instant (an in-memory server that is
// restarted registers again from the replay point, not from event 0).
type querySpec struct {
	name string
	text func(start time.Time) string
}

func startLit(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05") }

func register(name, body string) querySpec {
	return querySpec{name: name, text: func(start time.Time) string {
		return fmt.Sprintf("REGISTER QUERY %s STARTING AT %s\n{\n%s\n}", name, startLit(start), body)
	}}
}

// inputs is one workload's generated stream.
type inputs struct {
	elems []stream.Element
	lines [][]byte // NDJSON line per element, newline-terminated
}

func encodeAll(elems []stream.Element) (*inputs, error) {
	in := &inputs{elems: elems, lines: make([][]byte, len(elems))}
	for i, el := range elems {
		b, err := ingest.Encode(el.Graph, el.Time)
		if err != nil {
			return nil, fmt.Errorf("encode event %d: %w", i, err)
		}
		in.lines[i] = append(b, '\n')
	}
	return in, nil
}

// props builds a property map from key, value pairs; values are int64
// or string.
func props(kv ...any) map[string]value.Value {
	m := make(map[string]value.Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case int64:
			m[kv[i].(string)] = value.NewInt(v)
		case string:
			m[kv[i].(string)] = value.NewString(v)
		}
	}
	return m
}

func mustRel(g *pg.Graph, r *value.Relationship) {
	if err := g.AddRel(r); err != nil {
		panic(fmt.Sprintf("bench: generator built a dangling relationship: %v", err)) // endpoints are added first
	}
}

// --- serve-durable: the paper's micromobility stream ------------------

const durableSlide = 5 * time.Minute

func genDurable(seed int64, n int) []stream.Element {
	cfg := workload.DefaultMicroMobilityConfig()
	cfg.Seed = seed
	cfg.Start = streamStart
	cfg.BatchEvery = durableSlide
	cfg.RentalsPerBatch = 2
	cfg.FraudRatio = 0.1
	cfg.Stations = 400
	return workload.NewMicroMobility(cfg).Batches(n)
}

func durableQueries() []querySpec {
	return []querySpec{{name: "student_trick", text: workload.StudentTrickQueryAt}}
}

// --- serve-mqo: B16/B18-style pattern families ------------------------

const (
	mqoSlide    = 5 * time.Second
	mqoFamilies = 4
	mqoVariants = 10
)

var mqoWidths = []int{12, 30, 60} // window widths in slides

// genMQO emits, per event and family p, one fresh two-hop chain
// (u:User)-[:T<p>]->(d:Svc)-[:L<p>]->(h:Host), so a family's live
// binding table has one row per slide of its window and each instant
// changes 1/width of it.
func genMQO(seed int64, n int) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Element, n)
	id := int64(1_000_000)
	for i := range out {
		g := pg.New()
		for p := 0; p < mqoFamilies; p++ {
			uid, svc, hid, rid, sid := id, id+1, id+2, id+3, id+4
			id += 5
			g.AddNode(&value.Node{ID: uid, Labels: []string{"User"}, Props: props("uid", uid)})
			g.AddNode(&value.Node{ID: svc, Labels: []string{"Svc"}, Props: props("sid", svc)})
			g.AddNode(&value.Node{ID: hid, Labels: []string{"Host"}, Props: props("hid", hid)})
			mustRel(g, &value.Relationship{ID: rid, StartID: uid, EndID: svc, Type: fmt.Sprintf("T%d", p),
				Props: props("v", int64(1+rng.Intn(20)))})
			mustRel(g, &value.Relationship{ID: sid, StartID: svc, EndID: hid, Type: fmt.Sprintf("L%d", p),
				Props: props("w", int64(rng.Intn(1000)))})
		}
		out[i] = stream.Element{Graph: g, Time: streamStart.Add(time.Duration(i) * mqoSlide)}
	}
	return out
}

// mqoQueries is families x widths x literal-residual variants. The
// residual `r.v > k` mentions one variable, so all ten variants of a
// (family, width) canonicalise to one shared group. r.v is uniform on
// 1..20 and k runs over 10..19: selective alerts, a quarter of the
// (query, instant) results are non-empty.
func mqoQueries() []querySpec {
	var qs []querySpec
	for p := 0; p < mqoFamilies; p++ {
		for _, w := range mqoWidths {
			for k := 0; k < mqoVariants; k++ {
				body := fmt.Sprintf(`  MATCH (u:User)-[r:T%d]->(d:Svc)-[s:L%d]->(h:Host)
  WITHIN %s
  WHERE r.v > %d
  EMIT u.uid AS uid, h.hid AS hid, r.v AS v
  ON ENTERING EVERY %s`, p, p, value.FormatDuration(time.Duration(w)*mqoSlide), 10+k, value.FormatDuration(mqoSlide))
				qs = append(qs, register(fmt.Sprintf("f%dw%dk%d", p, w, k), body))
			}
		}
	}
	return qs
}

// --- serve-churn: large events, window = 2 x slide --------------------

const (
	churnSlide = 10 * time.Second
	churnUsers = 60
	churnSvcs  = 30
	churnSess  = 110
	churnCalls = 40
)

var churnProtos = []string{"https", "grpc", "kafka", "postgres"}

// genChurn re-sends the whole (User, Svc) vocabulary with every event
// plus 150 fresh relationships, about 30 KB of NDJSON. CALLS edges only
// run from a lower to a higher service id, so variable-length expansion
// is over a DAG and stays bounded.
func genChurn(seed int64, n int) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Element, n)
	id := int64(1_000_000)
	for i := range out {
		g := pg.New()
		for u := int64(1); u <= churnUsers; u++ {
			g.AddNode(&value.Node{ID: u, Labels: []string{"User"},
				Props: props("uid", u, "name", fmt.Sprintf("user-%03d", u))})
		}
		for s := int64(1); s <= churnSvcs; s++ {
			g.AddNode(&value.Node{ID: 1000 + s, Labels: []string{"Svc"},
				Props: props("sid", s, "tier", s%3, "name", fmt.Sprintf("svc-%02d", s))})
		}
		for k := 0; k < churnSess; k++ {
			u, s := int64(1+rng.Intn(churnUsers)), int64(1+rng.Intn(churnSvcs))
			mustRel(g, &value.Relationship{ID: id, StartID: u, EndID: 1000 + s, Type: "SESS", Props: props(
				"v", int64(1+rng.Intn(10)),
				"bytes", int64(rng.Intn(1_000_000_000)),
				"proto", churnProtos[rng.Intn(len(churnProtos))],
				"path", fmt.Sprintf("/api/v1/tenant/%04d/resource/%06d", rng.Intn(10000), rng.Intn(1000000)))})
			id++
		}
		for k := 0; k < churnCalls; k++ {
			a := int64(1 + rng.Intn(churnSvcs-1))
			b := a + 1 + int64(rng.Intn(int(churnSvcs-a)))
			mustRel(g, &value.Relationship{ID: id, StartID: 1000 + a, EndID: 1000 + b, Type: "CALLS", Props: props(
				"ms", int64(rng.Intn(500)),
				"route", fmt.Sprintf("/internal/rpc/%04d/method/%05d", rng.Intn(10000), rng.Intn(100000)))})
			id++
		}
		out[i] = stream.Element{Graph: g, Time: streamStart.Add(time.Duration(i) * churnSlide)}
	}
	return out
}

func churnQueries() []querySpec {
	w, e := value.FormatDuration(2*churnSlide), value.FormatDuration(churnSlide)
	q := func(name, body string) querySpec {
		return register(name, fmt.Sprintf(body, w, e))
	}
	return []querySpec{
		q("sess_by_svc", `  MATCH (u:User)-[r:SESS]->(s:Svc)
  WITHIN %s
  EMIT s.sid AS sid, count(*) AS n, sum(r.bytes) AS bytes
  SNAPSHOT EVERY %s`),
		q("top_talkers", `  MATCH (u:User)-[r:SESS]->(s:Svc)
  WITHIN %s
  EMIT u.uid AS uid, s.sid AS sid, r.bytes AS bytes
  ORDER BY bytes DESC, uid, sid
  LIMIT 10
  SNAPSHOT EVERY %s`),
		q("reach", `  MATCH (a:Svc)-[:CALLS*1..3]->(b:Svc)
  WITHIN %s
  WHERE a.tier = 0
  EMIT a.sid AS src, b.sid AS dst, count(*) AS paths
  SNAPSHOT EVERY %s`),
		register("sess_fanout", fmt.Sprintf(`  MATCH (u:User)-[r:SESS]->(s:Svc)
  WITHIN %s
  WHERE r.v > 8
  OPTIONAL MATCH (s)-[c:CALLS]->(t:Svc)
  WITHIN %s
  EMIT u.uid AS uid, s.sid AS sid, count(c) AS fanout
  ON ENTERING EVERY %s`, w, w, e)),
		q("shared_svc", `  MATCH (u:User)-[r:SESS]->(s:Svc)<-[r2:SESS]-(u2:User)
  WITHIN %s
  WHERE r.v = 10 AND r2.v = 10 AND u.uid < u2.uid
  EMIT u.uid AS a, u2.uid AS b, s.sid AS sid
  ON ENTERING EVERY %s`),
		q("sess_then_call", `  MATCH (u:User)-[r:SESS]->(s:Svc)-[c:CALLS]->(t:Svc)
  WITHIN %s
  WHERE r.v > 5
  EMIT u.uid AS uid, t.sid AS dst, c.ms AS ms
  ON EXITING EVERY %s`),
	}
}

// --- serve-results: one MATCH, many rows out --------------------------

const (
	resultsSlide  = 5 * time.Second
	resultsWidth  = 40 // slides
	resultsTxPerE = 20 // x 40 slides = 800 live rows
	resultsAccts  = 500
	resultsMerch  = 50
)

func genResults(seed int64, n int) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Element, n)
	id := int64(1_000_000)
	for i := range out {
		g := pg.New()
		for k := 0; k < resultsTxPerE; k++ {
			a, m := int64(1+rng.Intn(resultsAccts)), int64(1+rng.Intn(resultsMerch))
			g.AddNode(&value.Node{ID: a, Labels: []string{"Acct"}, Props: props("k", a)})
			g.AddNode(&value.Node{ID: 10_000 + m, Labels: []string{"Merchant"}, Props: props("k", m)})
			mustRel(g, &value.Relationship{ID: id, StartID: a, EndID: 10_000 + m, Type: "TX",
				Props: props("amt", int64(1+rng.Intn(100_000)))})
			id++
		}
		out[i] = stream.Element{Graph: g, Time: streamStart.Add(time.Duration(i) * resultsSlide)}
	}
	return out
}

func resultsQueries() []querySpec {
	w, e := value.FormatDuration(resultsWidth*resultsSlide), value.FormatDuration(resultsSlide)
	match := "  MATCH (a:Acct)-[t:TX]->(m:Merchant)\n  WITHIN " + w + "\n"
	rows := "  EMIT a.k AS acct, m.k AS merch, t.amt AS amt\n"
	return []querySpec{
		register("tx_snapshot", match+rows+"  SNAPSHOT EVERY "+e),
		register("tx_entering", match+rows+"  ON ENTERING EVERY "+e),
		register("tx_exiting", match+rows+"  ON EXITING EVERY "+e),
		register("tx_by_merchant", match+"  EMIT m.k AS merch, count(*) AS n, sum(t.amt) AS total\n  SNAPSHOT EVERY "+e),
	}
}
