package main

// trace.go is the traced run's span model. Spans are recorded from the
// benchmark's side of each layer boundary (the HTTP calls), kept in
// memory, and written when the run ends. One trace id per evaluation
// instant:
//
//	instant            POST due -> result visible on every probe
//	├── post           the request carrying the closing event: sent -> acknowledged
//	│   ├── ingest.decode      synthetic: the layer probes' medians,
//	│   ├── graphstore.merge   scaled by the events in the request
//	│   └── queue.produce      (durable workloads)
//	├── visible-wait   acknowledged -> first poll round that showed it
//	└── poll           the GET that showed it
//
// Set-up registrations are `register` spans under trace id -1.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: root
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the run started
	End    float64 `json:"end_us"`
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfUS   map[string]float64 `json:"self_us_by_name"` // total self time per span name
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, res *result) error {
	tf := traceFile{Workload: res.Workload, Seed: res.Seed, SelfUS: map[string]float64{}, Spans: res.spans}
	self := selfTimes(res.spans)
	for _, s := range res.spans {
		tf.SelfUS[s.Name] += self[s.ID]
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildSpans assembles the span tree from what the poster and the
// poller recorded, for the phases that ran with tracing on.
func (l *layerInputs) buildSpans(probes layerProbes, polls []pollRec) []span {
	r := l.r
	us := func(t time.Time) float64 { return float64(t.Sub(r.t0)) / 1e3 }
	var spans []span
	id := 0
	add := func(trace, parent int, name string, start, end float64) int {
		id++
		spans = append(spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	for _, iv := range r.registered {
		add(-1, 0, "register", us(iv[0]), us(iv[1]))
	}
	for _, ps := range []phaseStats{l.paced, l.closedTraced} {
		for _, rec := range ps.posts {
			for i := rec.first; i < rec.first+rec.n; i++ {
				vis := r.pl.visible[i]
				if vis.IsZero() {
					continue
				}
				root := add(i, 0, "instant", us(rec.due), us(vis))
				post := add(i, root, "post", us(rec.sent), us(rec.done))
				at := us(rec.sent)
				for _, p := range []struct {
					name string
					us   float64
				}{
					{"ingest.decode", probes.decodeUSp50},
					{"graphstore.merge", probes.mergeUSp50},
					{"queue.produce", probes.produceUSp50},
				} {
					if d := p.us * float64(rec.n); d > 0 {
						add(i, post, p.name, at, at+d)
						at += d
					}
				}
				if pi := r.pl.visiblePoll[i]; pi >= 0 && pi < len(polls) {
					p := polls[pi]
					if p.start.After(rec.done) {
						add(i, root, "visible-wait", us(rec.done), us(p.start))
					}
					add(i, root, "poll", us(p.start), us(p.end))
				}
			}
		}
	}
	return spans
}
