package graphstore

// Property-value indexes: lazily-built hash indexes on
// (label, propertyKey) → value → []*Node. The pattern matcher consults
// them when a node pattern carries an inline property map, or when a
// conjunctive equality predicate (n.k = <literal/param>) was pushed
// down out of WHERE.
//
// Indexes are built on first lookup by scanning the label's node list,
// then maintained incrementally by every store mutator
// (AddNode/DeleteNode/AddLabel/RemoveLabel/SetNodeProp): the rolling
// snapshot store of the incremental engine is long-lived, so a
// rebuild-on-mutation policy would cost O(label) per stream element.
// Maintenance follows the incremental-view-maintenance discipline: each
// mutation applies the exact delta (remove old entry, insert new), so a
// lookup after any mutation sequence equals a lookup on a freshly built
// index (see TestPropIndexMaintenanceQuick).

import (
	"slices"

	"seraph/internal/symtab"
	"seraph/internal/value"
)

// propIdxKey names one index: nodes with a label, bucketed by the value
// of one property key. Both halves are interned symbol IDs so the map
// hash is over two small ints; property keys reaching here are interned
// by propIndexLocked the first time an index is requested.
type propIdxKey struct {
	label symtab.ID
	key   symtab.ID
}

// propIndex buckets a label's nodes by the value.Key of one property.
// Nodes lacking the property are absent. Bucket slices are kept sorted
// by node id so index-served candidate enumeration matches the order of
// a label-list scan.
type propIndex struct {
	byVal map[string][]*value.Node
}

// NodesByLabelProp returns the nodes carrying label whose property key
// equals val, served from a lazily-built hash index. The returned slice
// must not be mutated. Equality follows value.Key identity, matching
// the matcher's value.Equal on ground (non-null) values.
func (s *Store) NodesByLabelProp(label, key string, val value.Value) []*value.Node {
	if val.IsNull() {
		return nil // n.k = null is never true; no node can match
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return s.propIndexLocked(label, key).byVal[value.Key(val)]
}

// PropIndexCount returns the number of nodes the (label, key) index
// holds under val — the planner's index-hit-size statistic. It builds
// the index as a side effect, which is the intended warming behavior:
// the planner probes exactly the indexes the matcher is about to use.
func (s *Store) PropIndexCount(label, key string, val value.Value) int {
	return len(s.NodesByLabelProp(label, key, val))
}

// PropIndexes reports how many (label, key) indexes have been built.
func (s *Store) PropIndexes() int {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	return len(s.propIdx)
}

// propIndexLocked returns (building on first use) the index for
// (label, key). Caller holds idxMu.
func (s *Store) propIndexLocked(label, key string) *propIndex {
	ik := propIdxKey{symtab.Intern(label), symtab.Intern(key)}
	if idx, ok := s.propIdx[ik]; ok {
		return idx
	}
	idx := &propIndex{byVal: map[string][]*value.Node{}}
	for _, n := range s.label[ik.label] {
		if v, ok := n.Props[key]; ok {
			vk := value.Key(v)
			idx.byVal[vk] = append(idx.byVal[vk], n)
		}
	}
	for _, bucket := range idx.byVal {
		sortNodes(bucket)
	}
	s.propIdx[ik] = idx
	return idx
}

// ---------------------------------------------------------------------------
// Incremental maintenance. Each hook applies the mutation's delta to
// every already-built index it touches; indexes not yet built need no
// work (they will scan the post-mutation label list when first used).

// propIndexAddNode inserts n into every built index covering one of its
// labels.
func (s *Store) propIndexAddNode(n *value.Node) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if len(s.propIdx) == 0 {
		return
	}
	for ik, idx := range s.propIdx {
		if !n.HasLabel(symtab.Name(ik.label)) {
			continue
		}
		if v, ok := n.Props[symtab.Name(ik.key)]; ok {
			idx.insert(value.Key(v), n)
		}
	}
}

// propIndexRemoveNode removes n from every built index covering one of
// its labels.
func (s *Store) propIndexRemoveNode(n *value.Node) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if len(s.propIdx) == 0 {
		return
	}
	for ik, idx := range s.propIdx {
		if !n.HasLabel(symtab.Name(ik.label)) {
			continue
		}
		if v, ok := n.Props[symtab.Name(ik.key)]; ok {
			idx.remove(value.Key(v), n.ID)
		}
	}
}

// propIndexAddLabel inserts n into built indexes anchored on the label
// it just gained.
func (s *Store) propIndexAddLabel(n *value.Node, label string) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	lid := symtab.Lookup(label)
	for ik, idx := range s.propIdx {
		if ik.label != lid {
			continue
		}
		if v, ok := n.Props[symtab.Name(ik.key)]; ok {
			idx.insert(value.Key(v), n)
		}
	}
}

// propIndexRemoveLabel removes n from built indexes anchored on the
// label it just lost. Called after the label has been removed from
// n.Labels.
func (s *Store) propIndexRemoveLabel(n *value.Node, label string) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	lid := symtab.Lookup(label)
	for ik, idx := range s.propIdx {
		if ik.label != lid {
			continue
		}
		if v, ok := n.Props[symtab.Name(ik.key)]; ok {
			idx.remove(value.Key(v), n.ID)
		}
	}
}

// propIndexSetProp re-buckets n in every built (label, key) index after
// the property changed from old (when had) to v.
func (s *Store) propIndexSetProp(n *value.Node, key string, old value.Value, had bool, v value.Value) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if len(s.propIdx) == 0 {
		return
	}
	kid := symtab.Lookup(key)
	for _, label := range n.Labels {
		idx, ok := s.propIdx[propIdxKey{symtab.Lookup(label), kid}]
		if !ok {
			continue
		}
		if had {
			idx.remove(value.Key(old), n.ID)
		}
		if !v.IsNull() {
			idx.insert(value.Key(v), n)
		}
	}
}

// insert adds n to the bucket for vk, keeping the bucket sorted by id.
// Inserting an id already present is a no-op (idempotent under re-adds).
func (idx *propIndex) insert(vk string, n *value.Node) {
	bucket := idx.byVal[vk]
	i := 0
	for ; i < len(bucket); i++ {
		if bucket[i].ID == n.ID {
			bucket[i] = n // same id re-added (e.g. window re-entry): refresh pointer
			return
		}
		if bucket[i].ID > n.ID {
			break
		}
	}
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = n
	idx.byVal[vk] = bucket
}

// remove drops node id from the bucket for vk, deleting empty buckets.
func (idx *propIndex) remove(vk string, id int64) {
	bucket := idx.byVal[vk]
	for i, n := range bucket {
		if n.ID == id {
			bucket = slices.Delete(bucket, i, i+1)
			if len(bucket) == 0 {
				delete(idx.byVal, vk)
			} else {
				idx.byVal[vk] = bucket
			}
			return
		}
	}
}
