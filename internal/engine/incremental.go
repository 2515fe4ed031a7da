package engine

import (
	"bytes"
	"fmt"
	"slices"

	"seraph/internal/graphstore"
	"seraph/internal/pg"
	"seraph/internal/stream"
	"seraph/internal/value"
)

// rolling maintains a snapshot graph incrementally across evaluations:
// instead of re-unioning the whole active substream at every instant,
// it applies only the elements entering and leaving the window. This
// implements the paper's first planned optimization ("efficient window
// maintenance", Section 6).
//
// A snapshot graph is the union of its elements (Def. 5.4), so the
// store is determined by which elements contribute each entity: nodes
// and rels list, per id, the element-owned versions contributing it.
// The first contributor inserts a store-owned copy; later ones must
// agree on topology and shared property values (else the union is
// inconsistent, as in pg.Union) and add what the store lacks. A leaving
// contributor takes the keys and labels no other one carries, and the
// last one the entity, so the store holds only what the window holds.
type rolling struct {
	store    *graphstore.Store
	nodes    map[int64][]*value.Node
	rels     map[int64][]*value.Relationship
	included map[*pg.Graph]stream.Element // window elements by identity
	keyBuf   []byte                       // reused by checkProps
}

func newRolling() *rolling {
	return &rolling{
		store:    graphstore.New(),
		nodes:    map[int64][]*value.Node{},
		rels:     map[int64][]*value.Relationship{},
		included: map[*pg.Graph]stream.Element{},
	}
}

// advance brings the rolling snapshot to the given active substream,
// applying removals first (freeing slots for consistent re-adds) and
// then additions. It returns how many elements entered and left the
// window, the per-instant maintenance cost the paper's Section 6
// optimization trades against full rebuilds. An element that makes the
// window inconsistent leaves no contribution behind.
func (r *rolling) advance(elems []stream.Element) (added, removed int, err error) {
	current := make(map[*pg.Graph]bool, len(elems))
	for _, e := range elems {
		current[e.Graph] = true
	}
	for g, e := range r.included {
		if !current[g] {
			r.remove(e.Graph.Nodes(), e.Graph.Rels())
			delete(r.included, g)
			removed++
		}
	}
	for _, e := range elems {
		if _, ok := r.included[e.Graph]; ok {
			continue
		}
		if err := r.add(e.Graph); err != nil {
			return added, removed, err
		}
		r.included[e.Graph] = e
		added++
	}
	return added, removed, nil
}

// add contributes every entity of g, nodes first (relationships need
// their endpoints). On an inconsistency it withdraws what it added.
func (r *rolling) add(g *pg.Graph) error {
	nodes, rels := g.Nodes(), g.Rels()
	for i, n := range nodes {
		if err := r.addNode(n); err != nil {
			r.remove(nodes[:i], nil)
			return err
		}
	}
	for i, rel := range rels {
		if err := r.addRel(rel); err != nil {
			r.remove(nodes, rels[:i])
			return err
		}
	}
	return nil
}

func (r *rolling) addNode(n *value.Node) error {
	cs, sn := r.nodes[n.ID], r.store.Node(n.ID)
	if len(cs) == 0 {
		sn = &value.Node{ID: n.ID, Props: cloneProps(n.Props)}
		r.store.AddNode(sn)
	} else if err := r.checkProps("node", n.ID, sn.Props, n.Props); err != nil {
		return err
	}
	for _, l := range n.Labels {
		r.store.AddLabel(sn, l)
	}
	for k, v := range n.Props {
		if _, ok := sn.Props[k]; !ok {
			r.store.SetNodeProp(sn, k, v)
		}
	}
	r.nodes[n.ID] = append(cs, n)
	return nil
}

func (r *rolling) addRel(rel *value.Relationship) error {
	cs, sr := r.rels[rel.ID], r.store.Rel(rel.ID)
	if len(cs) == 0 {
		sr = &value.Relationship{ID: rel.ID, StartID: rel.StartID, EndID: rel.EndID,
			Type: rel.Type, Props: cloneProps(rel.Props)}
		if err := r.store.AddRel(sr); err != nil {
			return err
		}
	} else if sr.StartID != rel.StartID || sr.EndID != rel.EndID || sr.Type != rel.Type {
		return &pg.Inconsistency{Entity: "relationship", ID: rel.ID, Reason: "differing topology"}
	} else if err := r.checkProps("relationship", rel.ID, sr.Props, rel.Props); err != nil {
		return err
	}
	for k, v := range rel.Props {
		if _, ok := sr.Props[k]; !ok {
			r.store.SetRelProp(sr, k, v)
		}
	}
	r.rels[rel.ID] = append(cs, rel)
	return nil
}

// checkProps reports an inconsistency if props gives a key the store
// entity already holds a value whose value.Key differs.
func (r *rolling) checkProps(entity string, id int64, have, props map[string]value.Value) error {
	for k, v := range props {
		old, ok := have[k]
		if !ok {
			continue
		}
		r.keyBuf = value.AppendKey(r.keyBuf[:0], old)
		n := len(r.keyBuf)
		r.keyBuf = value.AppendKey(r.keyBuf, v)
		if !bytes.Equal(r.keyBuf[:n], r.keyBuf[n:]) {
			return &pg.Inconsistency{Entity: entity, ID: id,
				Reason: fmt.Sprintf("property %q: %s vs %s", k, old, v)}
		}
	}
	return nil
}

// remove withdraws the given contributions. Relationships go first so
// nodes are free to disappear afterwards: every element carries its
// relationships' endpoints, so a node outlives its relationships.
func (r *rolling) remove(nodes []*value.Node, rels []*value.Relationship) {
	for _, rel := range rels {
		cs := r.rels[rel.ID]
		i := slices.Index(cs, rel)
		if i < 0 {
			continue
		}
		sr := r.store.Rel(rel.ID)
		if len(cs) == 1 {
			r.store.DeleteRel(sr)
			delete(r.rels, rel.ID)
			continue
		}
		cs = slices.Delete(cs, i, i+1)
		r.rels[rel.ID] = cs
		for k := range rel.Props {
			if !slices.ContainsFunc(cs, func(c *value.Relationship) bool { _, ok := c.Props[k]; return ok }) {
				r.store.SetRelProp(sr, k, value.Null)
			}
		}
	}
	for _, n := range nodes {
		cs := r.nodes[n.ID]
		i := slices.Index(cs, n)
		if i < 0 {
			continue
		}
		sn := r.store.Node(n.ID)
		if len(cs) == 1 {
			_ = r.store.DeleteNode(sn, false)
			delete(r.nodes, n.ID)
			continue
		}
		cs = slices.Delete(cs, i, i+1)
		r.nodes[n.ID] = cs
		for _, l := range n.Labels {
			if !slices.ContainsFunc(cs, func(c *value.Node) bool { return c.HasLabel(l) }) {
				r.store.RemoveLabel(sn, l)
			}
		}
		for k := range n.Props {
			if !slices.ContainsFunc(cs, func(c *value.Node) bool { _, ok := c.Props[k]; return ok }) {
				r.store.SetNodeProp(sn, k, value.Null)
			}
		}
	}
}

func cloneProps(props map[string]value.Value) map[string]value.Value {
	out := make(map[string]value.Value, len(props))
	for k, v := range props {
		out[k] = v
	}
	return out
}
