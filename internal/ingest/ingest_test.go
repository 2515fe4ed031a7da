package ingest

import (
	"testing"
	"time"

	"seraph/internal/graphstore"
	"seraph/internal/pg"
	"seraph/internal/queue"
	"seraph/internal/value"
	"seraph/internal/workload"
)

func TestCodecRoundTrip(t *testing.T) {
	g := pg.New()
	ts := time.Date(2022, 10, 14, 14, 45, 0, 0, time.UTC)
	g.AddNode(&value.Node{ID: 1, Labels: []string{"Station"}, Props: map[string]value.Value{
		"id":   value.NewInt(1),
		"name": value.NewString("hbf"),
		"geo":  value.NewList(value.NewFloat(51.34), value.NewFloat(12.38)),
		"open": value.True,
		"meta": value.NewMap(map[string]value.Value{"zone": value.NewInt(2)}),
	}})
	g.AddNode(&value.Node{ID: 2, Labels: []string{"Bike", "EBike"}, Props: map[string]value.Value{}})
	if err := g.AddRel(&value.Relationship{
		ID: 7, StartID: 2, EndID: 1, Type: "rentedAt",
		Props: map[string]value.Value{
			"val_time": value.NewDateTime(ts),
			"lease":    value.NewDuration(20 * time.Minute),
		},
	}); err != nil {
		t.Fatal(err)
	}

	data, err := Encode(g, ts)
	if err != nil {
		t.Fatal(err)
	}
	back, backTS, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !backTS.Equal(ts) {
		t.Errorf("ts = %s", backTS)
	}
	if back.NumNodes() != 2 || back.NumRels() != 1 {
		t.Fatalf("sizes %d/%d", back.NumNodes(), back.NumRels())
	}
	n := back.Node(1)
	if !value.Equivalent(n.Prop("name"), value.NewString("hbf")) {
		t.Error("string prop")
	}
	if !value.Equivalent(n.Prop("geo"), value.NewList(value.NewFloat(51.34), value.NewFloat(12.38))) {
		t.Error("list prop")
	}
	if !value.Equivalent(n.Prop("meta"), value.NewMap(map[string]value.Value{"zone": value.NewInt(2)})) {
		t.Errorf("map prop: %s", n.Prop("meta"))
	}
	r := back.Rel(7)
	if r.Prop("val_time").Kind() != value.KindDateTime || !r.Prop("val_time").DateTime().Equal(ts) {
		t.Errorf("datetime prop: %s", r.Prop("val_time"))
	}
	if r.Prop("lease").Duration() != 20*time.Minute {
		t.Errorf("duration prop: %s", r.Prop("lease"))
	}
	if !back.Node(2).HasLabel("EBike") {
		t.Error("labels")
	}
}

func TestDecodeIntVsFloat(t *testing.T) {
	g, _, err := Decode([]byte(`{"ts":"2022-10-14T14:45:00Z","nodes":[{"id":1,"props":{"i":5,"f":5.5}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	n := g.Node(1)
	if !n.Prop("i").IsInt() {
		t.Error("integral JSON number should decode as int")
	}
	if !n.Prop("f").IsFloat() {
		t.Error("fractional JSON number should decode as float")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"ts":"2022-10-14T14:45:00Z","rels":[{"id":1,"start":9,"end":10,"type":"T"}]}`, // dangling endpoints
		`{"ts":"2022-10-14T14:45:00Z","nodes":[{"id":1,"props":{"x":{"$t":"dt","v":"bogus"}}}]}`,
		`{"ts":"2022-10-14T14:45:00Z","nodes":[{"id":1,"props":{"x":{"$t":"weird","v":1}}}]}`,
	}
	for _, c := range cases {
		if _, _, err := Decode([]byte(c)); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

func TestMergeIntoUNA(t *testing.T) {
	store := graphstore.New()
	for _, el := range workload.Figure1Stream() {
		if err := MergeInto(store, el.Graph); err != nil {
			t.Fatal(err)
		}
	}
	// Figure 2: merged graph has 8 nodes and 8 relationships.
	if store.NumNodes() != 8 || store.NumRels() != 8 {
		t.Errorf("merged sizes %d/%d, want 8/8", store.NumNodes(), store.NumRels())
	}
	// Merging the same events again is idempotent.
	for _, el := range workload.Figure1Stream() {
		if err := MergeInto(store, el.Graph); err != nil {
			t.Fatal(err)
		}
	}
	if store.NumNodes() != 8 || store.NumRels() != 8 {
		t.Error("re-merge must be idempotent under UNA")
	}
}

func TestMergeIntoConflict(t *testing.T) {
	store := graphstore.New()
	g1 := pg.New()
	g1.AddNode(&value.Node{ID: 1, Props: map[string]value.Value{}})
	g1.AddNode(&value.Node{ID: 2, Props: map[string]value.Value{}})
	g1.AddRel(&value.Relationship{ID: 5, StartID: 1, EndID: 2, Type: "A", Props: map[string]value.Value{}})
	if err := MergeInto(store, g1); err != nil {
		t.Fatal(err)
	}
	g2 := pg.New()
	g2.AddNode(&value.Node{ID: 1, Props: map[string]value.Value{}})
	g2.AddNode(&value.Node{ID: 2, Props: map[string]value.Value{}})
	g2.AddRel(&value.Relationship{ID: 5, StartID: 2, EndID: 1, Type: "A", Props: map[string]value.Value{}})
	if err := MergeInto(store, g2); err == nil {
		t.Error("conflicting topology must fail")
	}
}

func TestConnectorPipeline(t *testing.T) {
	broker := queue.NewBroker()
	if err := broker.CreateTopic("rentals", 1); err != nil {
		t.Fatal(err)
	}
	for _, el := range workload.Figure1Stream() {
		data, err := Encode(el.Graph, el.Time)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := broker.Produce("rentals", "", data, el.Time); err != nil {
			t.Fatal(err)
		}
	}

	var delivered []time.Time
	conn, err := NewConnector(broker, "rentals", func(g *pg.Graph, ts time.Time) error {
		delivered = append(delivered, ts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	n, err := conn.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || conn.EventsDelivered() != 5 {
		t.Errorf("delivered %d events", n)
	}
	for i := 1; i < len(delivered); i++ {
		if delivered[i].Before(delivered[i-1]) {
			t.Fatal("out-of-order delivery")
		}
	}
	// Drained topic yields nothing more.
	if n, _ := conn.Poll(10); n != 0 {
		t.Errorf("post-drain poll: %d", n)
	}
}

func TestConnectorBadEvent(t *testing.T) {
	broker := queue.NewBroker()
	if err := broker.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	broker.Produce("t", "", []byte("garbage"), time.Now())
	conn, err := NewConnector(broker, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Poll(10); err == nil {
		t.Error("bad event must surface an error")
	}
}
