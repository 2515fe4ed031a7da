package graphstore

import (
	"testing"

	"seraph/internal/pg"
	"seraph/internal/symtab"
	"seraph/internal/value"
)

func buildStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	a := s.CreateNode([]string{"A"}, map[string]value.Value{"name": value.NewString("a")})
	b := s.CreateNode([]string{"A", "B"}, nil)
	c := s.CreateNode([]string{"C"}, nil)
	if _, err := s.CreateRel(a.ID, b.ID, "R", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRel(b.ID, c.ID, "S", nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateAndIndex(t *testing.T) {
	s := buildStore(t)
	if s.NumNodes() != 3 || s.NumRels() != 2 {
		t.Fatalf("sizes %d/%d", s.NumNodes(), s.NumRels())
	}
	if n := len(s.NodesByLabel("A")); n != 2 {
		t.Errorf("label A count = %d", n)
	}
	if n := len(s.NodesByLabel("Missing")); n != 0 {
		t.Errorf("missing label count = %d", n)
	}
	a := s.NodesByLabel("A")[0]
	if len(s.Outgoing(a.ID)) != 1 || len(s.Incoming(a.ID)) != 0 {
		t.Error("adjacency of a")
	}
	b := s.NodesByLabel("B")[0]
	if s.Degree(b.ID) != 2 {
		t.Errorf("degree of b = %d", s.Degree(b.ID))
	}
}

func TestFromGraphIndexes(t *testing.T) {
	g := pg.New()
	g.AddNode(&value.Node{ID: 10, Labels: []string{"X"}, Props: map[string]value.Value{}})
	g.AddNode(&value.Node{ID: 20, Labels: []string{"X"}, Props: map[string]value.Value{}})
	if err := g.AddRel(&value.Relationship{ID: 7, StartID: 10, EndID: 20, Type: "T", Props: map[string]value.Value{}}); err != nil {
		t.Fatal(err)
	}
	s := FromGraph(g)
	if len(s.NodesByLabel("X")) != 2 {
		t.Error("label index from graph")
	}
	if len(s.Outgoing(10)) != 1 || s.Outgoing(10)[0].ID != 7 {
		t.Error("out index from graph")
	}
	if len(s.Incoming(20)) != 1 {
		t.Error("in index from graph")
	}
	// Fresh ids must not collide with existing ones.
	n := s.CreateNode(nil, nil)
	if n.ID <= 20 {
		t.Errorf("fresh node id %d collides", n.ID)
	}
	r, err := s.CreateRel(10, 20, "U", nil)
	if err != nil || r.ID <= 7 {
		t.Errorf("fresh rel id %v %v", r, err)
	}
}

func TestCreateRelMissingEndpoint(t *testing.T) {
	s := New()
	n := s.CreateNode(nil, nil)
	if _, err := s.CreateRel(n.ID, 999, "T", nil); err == nil {
		t.Error("missing endpoint must fail")
	}
}

func TestLabelMutation(t *testing.T) {
	s := New()
	n := s.CreateNode([]string{"A"}, nil)
	s.AddLabel(n, "B")
	s.AddLabel(n, "B") // idempotent
	if len(n.Labels) != 2 || len(s.NodesByLabel("B")) != 1 {
		t.Errorf("labels after add: %v", n.Labels)
	}
	s.RemoveLabel(n, "A")
	if n.HasLabel("A") || len(s.NodesByLabel("A")) != 0 {
		t.Error("label removal")
	}
	s.RemoveLabel(n, "Missing") // no-op
}

func TestDelete(t *testing.T) {
	s := buildStore(t)
	b := s.NodesByLabel("B")[0]
	if err := s.DeleteNode(b, false); err == nil {
		t.Fatal("deleting connected node without detach must fail")
	}
	if err := s.DeleteNode(b, true); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 2 || s.NumRels() != 0 {
		t.Errorf("after detach delete: %d/%d", s.NumNodes(), s.NumRels())
	}
	if len(s.NodesByLabel("B")) != 0 {
		t.Error("label index not maintained on delete")
	}
	a := s.NodesByLabel("A")[0]
	if len(s.Outgoing(a.ID)) != 0 {
		t.Error("adjacency not maintained on delete")
	}
}

func TestDeleteRel(t *testing.T) {
	s := New()
	a := s.CreateNode(nil, nil)
	b := s.CreateNode(nil, nil)
	r, err := s.CreateRel(a.ID, b.ID, "T", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.DeleteRel(r)
	if s.NumRels() != 0 || len(s.Outgoing(a.ID)) != 0 || len(s.Incoming(b.ID)) != 0 {
		t.Error("rel deletion")
	}
	// Node can now be deleted without detach.
	if err := s.DeleteNode(a, false); err != nil {
		t.Error(err)
	}
}

func TestAddNodeAddRelExplicitIDs(t *testing.T) {
	s := New()
	s.AddNode(&value.Node{ID: 100, Labels: []string{"L"}, Props: map[string]value.Value{}})
	s.AddNode(&value.Node{ID: 200, Props: map[string]value.Value{}})
	if err := s.AddRel(&value.Relationship{ID: 300, StartID: 100, EndID: 200, Type: "T", Props: map[string]value.Value{}}); err != nil {
		t.Fatal(err)
	}
	// Fresh allocations skip past explicit ids.
	if n := s.CreateNode(nil, nil); n.ID <= 200 {
		t.Errorf("fresh node id %d", n.ID)
	}
	if r, _ := s.CreateRel(100, 200, "U", nil); r.ID <= 300 {
		t.Errorf("fresh rel id %d", r.ID)
	}
}

// TestStoreForgetsDeletedEntities: after every entity is deleted, no
// index keeps a key or a slot naming one. A long-lived store (the
// engine's rolling window store) sees fresh ids every window, so a key
// left behind per deleted node is an unbounded leak.
func TestStoreForgetsDeletedEntities(t *testing.T) {
	s := New()
	props := func(v int64) map[string]value.Value { return map[string]value.Value{"k": value.NewInt(v)} }
	for id := int64(1); id <= 6; id++ {
		s.AddNode(&value.Node{ID: id, Labels: []string{"L", "M"}, Props: props(id % 2)})
	}
	rels := []*value.Relationship{
		{ID: 10, StartID: 1, EndID: 2, Type: "R"},
		{ID: 11, StartID: 1, EndID: 3, Type: "S"},
		{ID: 12, StartID: 2, EndID: 3, Type: "R"},
		{ID: 13, StartID: 4, EndID: 4, Type: "R"}, // self-loop
		{ID: 14, StartID: 5, EndID: 1, Type: "S"},
		{ID: 15, StartID: 6, EndID: 5, Type: "R"},
	}
	for _, r := range rels {
		r.Props = props(r.ID)
		if err := s.AddRel(r); err != nil {
			t.Fatal(err)
		}
	}
	// Partition every node's adjacency and build the property index.
	types := lookupIDs([]string{"R"})
	for id := int64(1); id <= 6; id++ {
		s.OutgoingIDs(id, types)
		s.IncomingIDs(id, types)
	}
	if got := len(s.NodesByLabelProp("L", "k", value.NewInt(1))); got != 3 {
		t.Fatalf("index hit = %d, want 3", got)
	}

	// Interior removals must clear the vacated slot of each slice.
	s.DeleteRel(rels[0]) // out[1] = [10 11] → [11]
	if out := s.out[1]; len(out) != 1 || out[:cap(out)][1] != nil {
		t.Errorf("out[1] after DeleteRel: %v, tail not cleared", out[:cap(out)])
	}
	n3 := s.Node(3)
	s.RemoveLabel(n3, "L") // Labels [L M] → [M]
	if l := n3.Labels; len(l) != 1 || l[:cap(l)][1] != "" {
		t.Errorf("labels after RemoveLabel: %q", l[:cap(l)])
	}
	if b := s.label[symtab.Lookup("L")]; b[:cap(b)][len(b)] != nil {
		t.Error("label bucket tail not cleared after interior removal")
	}
	if b := s.propIdx[propIdxKey{symtab.Lookup("L"), symtab.Lookup("k")}].byVal[value.Key(value.NewInt(1))]; b[:cap(b)][len(b)] != nil {
		t.Error("property bucket tail not cleared after interior removal")
	}

	s.DeleteRel(rels[2])
	// A self-loop sits in both adjacency lists of its node and is
	// deleted once.
	if err := s.DeleteNode(s.Node(4), true); err != nil {
		t.Fatal(err)
	}
	if got := s.RelTypeCount("R"); got != 1 {
		t.Errorf("RelTypeCount(R) = %d after deleting the self-loop's node, want 1", got)
	}
	for _, n := range s.AllNodes() {
		if err := s.DeleteNode(n, true); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumNodes() != 0 || s.NumRels() != 0 {
		t.Fatalf("sizes %d/%d after deleting everything", s.NumNodes(), s.NumRels())
	}
	for name, n := range map[string]int{
		"out": len(s.out), "in": len(s.in), "outT": len(s.outT), "inT": len(s.inT),
		"outTDone": len(s.outTDone), "inTDone": len(s.inTDone), "relType": len(s.relType),
	} {
		if n != 0 {
			t.Errorf("%s keeps %d keys", name, n)
		}
	}
	for l, b := range s.label {
		if len(b) != 0 {
			t.Errorf("label %s keeps %d nodes", symtab.Name(l), len(b))
		}
	}
	for ik, idx := range s.propIdx {
		if len(idx.byVal) != 0 {
			t.Errorf("property index %v keeps %d buckets", ik, len(idx.byVal))
		}
	}
}
