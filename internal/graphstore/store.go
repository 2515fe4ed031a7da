// Package graphstore provides an indexed, mutable view over a property
// graph: adjacency lists per node (partitioned by relationship type), a
// label index, lazily-built property-value indexes, and id allocation
// for updating clauses. The Cypher evaluator matches patterns against a
// Store; the continuous engine builds one Store per snapshot graph (or
// maintains a long-lived rolling Store in incremental mode, which is
// why every mutator below also maintains the index structures).
package graphstore

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"seraph/internal/pg"
	"seraph/internal/symtab"
	"seraph/internal/value"
)

// adjKey addresses one node's adjacency list for one relationship
// type. The type is stored as its interned symbol ID, so the map hash
// is over two ints instead of an int and a string.
type adjKey struct {
	id  int64
	typ symtab.ID
}

// Store is an indexed property graph. It is not safe for concurrent
// mutation; concurrent reads are safe once construction is complete
// (the lazily-built property indexes synchronize internally).
type Store struct {
	graph *pg.Graph
	// out/in map node id → relationships sorted by id.
	out map[int64][]*value.Relationship
	in  map[int64][]*value.Relationship
	// label and relType are keyed by interned symbol ID (symtab): the
	// matcher resolves pattern labels/types to IDs once per plan and
	// every per-element lookup is an int-map access. String-keyed
	// wrappers (NodesByLabel, RelTypeCount) Lookup on entry; a string
	// never interned maps to symtab.None, which indexes nothing —
	// exactly the semantics of an unknown label.
	label map[symtab.ID][]*value.Node

	// outT/inT partition the adjacency lists by relationship type, so a
	// typed expansion touches only matching edges. Partitions are built
	// lazily per node on first typed access (outTDone/inTDone record
	// which nodes are partitioned); bulk store construction never pays
	// for them, and mutators maintain only partitions that exist.
	outT     map[adjKey][]*value.Relationship
	inT      map[adjKey][]*value.Relationship
	outTDone map[int64]bool
	inTDone  map[int64]bool

	// relType counts relationships per type (planner selectivity
	// statistics), keyed by interned type ID.
	relType map[symtab.ID]int

	// idxMu guards propIdx and the typed-adjacency partitions: both are
	// built lazily from the read path, which must stay safe under
	// concurrent readers.
	idxMu   sync.Mutex
	propIdx map[propIdxKey]*propIndex

	nextNodeID atomic.Int64
	nextRelID  atomic.Int64

	// delta, when non-nil, records entity-level changes for the engine's
	// delta-driven evaluation mode (see delta.go).
	delta *deltaRecorder
}

// New returns an empty store.
func New() *Store {
	return FromGraph(pg.New())
}

// FromGraph builds an indexed store over g. The store takes ownership
// of g; callers must not mutate g afterwards.
func FromGraph(g *pg.Graph) *Store {
	s := &Store{
		graph:    g,
		out:      make(map[int64][]*value.Relationship),
		in:       make(map[int64][]*value.Relationship),
		label:    make(map[symtab.ID][]*value.Node),
		outT:     make(map[adjKey][]*value.Relationship),
		inT:      make(map[adjKey][]*value.Relationship),
		outTDone: make(map[int64]bool),
		inTDone:  make(map[int64]bool),
		relType:  make(map[symtab.ID]int),
		propIdx:  make(map[propIdxKey]*propIndex),
	}
	var maxN, maxR int64
	g.EachNode(func(n *value.Node) {
		s.indexNode(n)
		if n.ID > maxN {
			maxN = n.ID
		}
	})
	g.EachRel(func(r *value.Relationship) {
		s.indexRel(r)
		if r.ID > maxR {
			maxR = r.ID
		}
	})
	for _, rels := range s.out {
		sortRels(rels)
	}
	for _, rels := range s.in {
		sortRels(rels)
	}
	for _, ns := range s.label {
		sortNodes(ns)
	}
	s.nextNodeID.Store(maxN + 1)
	s.nextRelID.Store(maxR + 1)
	return s
}

func sortRels(rels []*value.Relationship) {
	sort.Slice(rels, func(i, j int) bool { return rels[i].ID < rels[j].ID })
}

func sortNodes(ns []*value.Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
}

// insertNodeSorted places n into the id-sorted slice ns. Stream ids are
// usually monotonic, so the common case is an O(1) append; a full
// re-sort here would make every label gained by an entering node cost
// O(label bucket), which dominates delta-driven evaluation profiles.
func insertNodeSorted(ns []*value.Node, n *value.Node) []*value.Node {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].ID >= n.ID })
	ns = append(ns, nil)
	copy(ns[i+1:], ns[i:])
	ns[i] = n
	return ns
}

// removeNodeSorted deletes node id from the id-sorted slice ns. Window
// eviction retires the oldest ids first, so the common case is popping
// the front, which re-slices without copying the tail. Either way the
// vacated slot is nilled so the shared backing array does not retain
// the node.
func removeNodeSorted(ns []*value.Node, id int64) []*value.Node {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].ID >= id })
	if i >= len(ns) || ns[i].ID != id {
		return ns
	}
	if i == 0 {
		ns[0] = nil
		return ns[1:]
	}
	return slices.Delete(ns, i, i+1)
}

func (s *Store) indexNode(n *value.Node) {
	for _, l := range n.Labels {
		s.label[symtab.Intern(l)] = append(s.label[symtab.Intern(l)], n)
	}
}

func (s *Store) indexRel(r *value.Relationship) {
	s.out[r.StartID] = append(s.out[r.StartID], r)
	s.in[r.EndID] = append(s.in[r.EndID], r)
	typ := symtab.Intern(r.Type)
	if s.outTDone[r.StartID] {
		s.outT[adjKey{r.StartID, typ}] = append(s.outT[adjKey{r.StartID, typ}], r)
	}
	if s.inTDone[r.EndID] {
		s.inT[adjKey{r.EndID, typ}] = append(s.inT[adjKey{r.EndID, typ}], r)
	}
	s.relType[typ]++
}

// Graph returns the underlying property graph.
func (s *Store) Graph() *pg.Graph { return s.graph }

// Node returns the node with id, or nil.
func (s *Store) Node(id int64) *value.Node { return s.graph.Node(id) }

// Rel returns the relationship with id, or nil.
func (s *Store) Rel(id int64) *value.Relationship { return s.graph.Rel(id) }

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return s.graph.NumNodes() }

// NumRels returns the relationship count.
func (s *Store) NumRels() int { return s.graph.NumRels() }

// AllNodes returns all nodes sorted by id.
func (s *Store) AllNodes() []*value.Node { return s.graph.Nodes() }

// AllRels returns all relationships sorted by id.
func (s *Store) AllRels() []*value.Relationship { return s.graph.Rels() }

// NodesByLabel returns the nodes carrying label l, sorted by id.
// The returned slice must not be mutated.
func (s *Store) NodesByLabel(l string) []*value.Node { return s.label[symtab.Lookup(l)] }

// NodesByLabelID is NodesByLabel addressed by interned label ID — the
// matcher's hot path, one int-map access.
func (s *Store) NodesByLabelID(id symtab.ID) []*value.Node { return s.label[id] }

// LabelCount returns the number of nodes carrying label l without
// materializing the node list (planner statistics).
func (s *Store) LabelCount(l string) int { return len(s.label[symtab.Lookup(l)]) }

// LabelCountID is LabelCount addressed by interned label ID.
func (s *Store) LabelCountID(id symtab.ID) int { return len(s.label[id]) }

// RelTypeCount returns how many relationships carry one of the given
// types; with no types it returns the total relationship count.
func (s *Store) RelTypeCount(types ...string) int {
	if len(types) == 0 {
		return s.graph.NumRels()
	}
	n := 0
	for _, t := range types {
		n += s.relType[symtab.Lookup(t)]
	}
	return n
}

// RelTypeCountIDs is RelTypeCount addressed by interned type IDs.
func (s *Store) RelTypeCountIDs(ids []symtab.ID) int {
	if len(ids) == 0 {
		return s.graph.NumRels()
	}
	n := 0
	for _, id := range ids {
		n += s.relType[id]
	}
	return n
}

// Outgoing returns relationships with src = id. With types given, only
// relationships of those types are returned, served from the
// type-partitioned adjacency index (built for this node on first typed
// access). Results of a freshly built store are sorted by id; the
// returned slice must not be mutated.
func (s *Store) Outgoing(id int64, types ...string) []*value.Relationship {
	if len(types) == 0 {
		return s.out[id]
	}
	return s.OutgoingIDs(id, lookupIDs(types))
}

// OutgoingIDs is Outgoing addressed by interned type IDs (nil means
// all types).
func (s *Store) OutgoingIDs(id int64, types []symtab.ID) []*value.Relationship {
	if len(types) == 0 {
		return s.out[id]
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	partitionAdjLocked(s.out, s.outT, s.outTDone, id)
	return typedLocked(s.outT, id, types)
}

// Incoming returns relationships with trg = id, optionally restricted
// to the given types (see Outgoing).
func (s *Store) Incoming(id int64, types ...string) []*value.Relationship {
	if len(types) == 0 {
		return s.in[id]
	}
	return s.IncomingIDs(id, lookupIDs(types))
}

// IncomingIDs is Incoming addressed by interned type IDs (nil means
// all types).
func (s *Store) IncomingIDs(id int64, types []symtab.ID) []*value.Relationship {
	if len(types) == 0 {
		return s.in[id]
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	partitionAdjLocked(s.in, s.inT, s.inTDone, id)
	return typedLocked(s.inT, id, types)
}

// lookupIDs resolves type strings to interned IDs for the string-keyed
// wrapper APIs. Unseen strings resolve to None, which matches nothing.
func lookupIDs(types []string) []symtab.ID {
	ids := make([]symtab.ID, len(types))
	for i, t := range types {
		ids[i] = symtab.Lookup(t)
	}
	return ids
}

// partitionAdjLocked splits all[id] into per-type lists in byType. The
// source list is id-sorted, so each partition stays sorted. Callers
// hold idxMu: partitioning happens on the read path and must be safe
// under concurrent readers.
func partitionAdjLocked(all map[int64][]*value.Relationship, byType map[adjKey][]*value.Relationship, done map[int64]bool, id int64) {
	if done[id] {
		return
	}
	for _, r := range all[id] {
		k := adjKey{id, symtab.Intern(r.Type)}
		byType[k] = append(byType[k], r)
	}
	done[id] = true
}

func typedLocked(byType map[adjKey][]*value.Relationship, id int64, types []symtab.ID) []*value.Relationship {
	if len(types) == 1 {
		return byType[adjKey{id, types[0]}]
	}
	var merged []*value.Relationship
	for _, t := range types {
		merged = append(merged, byType[adjKey{id, t}]...)
	}
	sortRels(merged) // multi-type union re-sorts to the canonical id order
	return merged
}

// Degree returns the total degree of node id. With types given it
// counts only relationships of those types.
func (s *Store) Degree(id int64, types ...string) int {
	if len(types) == 0 {
		return len(s.out[id]) + len(s.in[id])
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	partitionAdjLocked(s.out, s.outT, s.outTDone, id)
	partitionAdjLocked(s.in, s.inT, s.inTDone, id)
	n := 0
	for _, t := range types {
		tid := symtab.Lookup(t)
		n += len(s.outT[adjKey{id, tid}]) + len(s.inT[adjKey{id, tid}])
	}
	return n
}

// CreateNode allocates a fresh node with the given labels and
// properties and inserts it.
func (s *Store) CreateNode(labels []string, props map[string]value.Value) *value.Node {
	if props == nil {
		props = map[string]value.Value{}
	}
	n := &value.Node{ID: s.nextNodeID.Add(1) - 1, Labels: labels, Props: props}
	s.graph.AddNode(n)
	s.indexNode(n)
	s.propIndexAddNode(n)
	s.noteNode(n.ID, deltaAdded)
	return n
}

// AddNode inserts a node with a caller-chosen id (used by ingestion
// under the unique name assumption). It replaces nothing: callers must
// check existence first.
func (s *Store) AddNode(n *value.Node) {
	s.graph.AddNode(n)
	for _, l := range n.Labels {
		id := symtab.Intern(l)
		s.label[id] = insertNodeSorted(s.label[id], n)
	}
	s.propIndexAddNode(n)
	s.noteNode(n.ID, deltaAdded)
	if n.ID >= s.nextNodeID.Load() {
		s.nextNodeID.Store(n.ID + 1)
	}
}

// CreateRel allocates a fresh relationship and inserts it. Both
// endpoints must exist.
func (s *Store) CreateRel(startID, endID int64, typ string, props map[string]value.Value) (*value.Relationship, error) {
	if props == nil {
		props = map[string]value.Value{}
	}
	r := &value.Relationship{
		ID:      s.nextRelID.Add(1) - 1,
		StartID: startID,
		EndID:   endID,
		Type:    typ,
		Props:   props,
	}
	if err := s.graph.AddRel(r); err != nil {
		return nil, err
	}
	s.indexRel(r)
	s.noteRel(r.ID, deltaAdded)
	return r, nil
}

// AddRel inserts a relationship with a caller-chosen id.
func (s *Store) AddRel(r *value.Relationship) error {
	if err := s.graph.AddRel(r); err != nil {
		return err
	}
	s.indexRel(r)
	s.noteRel(r.ID, deltaAdded)
	if r.ID >= s.nextRelID.Load() {
		s.nextRelID.Store(r.ID + 1)
	}
	return nil
}

// AddLabel adds label l to node n, maintaining the label and property
// indexes.
func (s *Store) AddLabel(n *value.Node, l string) {
	if n.HasLabel(l) {
		return
	}
	n.Labels = append(n.Labels, l)
	id := symtab.Intern(l)
	s.label[id] = insertNodeSorted(s.label[id], n)
	s.propIndexAddLabel(n, l)
	s.noteNode(n.ID, deltaUpdated)
}

// RemoveLabel removes label l from node n.
func (s *Store) RemoveLabel(n *value.Node, l string) {
	i := slices.Index(n.Labels, l)
	if i < 0 {
		return
	}
	n.Labels = slices.Delete(n.Labels, i, i+1)
	id := symtab.Lookup(l)
	s.label[id] = removeNodeSorted(s.label[id], n.ID)
	s.propIndexRemoveLabel(n, l)
	s.noteNode(n.ID, deltaUpdated)
}

// SetNodeProp sets property key on node n to v, maintaining the
// property indexes; a Null v removes the property. All node property
// mutations on a live store must go through here (or the index layer
// silently serves stale entries).
func (s *Store) SetNodeProp(n *value.Node, key string, v value.Value) {
	old, had := n.Props[key]
	if v.IsNull() {
		if !had {
			return
		}
		delete(n.Props, key)
	} else {
		if had && value.Equivalent(old, v) {
			return
		}
		n.Props[key] = v
	}
	if s.graph.Node(n.ID) == n {
		// Only a store member belongs in the indexes; a foreign node (a
		// value from another snapshot) just has its props mutated.
		s.propIndexSetProp(n, key, old, had, v)
		s.noteNode(n.ID, deltaUpdated)
	}
}

// SetRelProp sets property key on relationship r to v; a Null v removes
// the property. Relationship properties are not indexed, but routing
// mutations through the store keeps the API symmetric and leaves room
// for future relationship indexes.
func (s *Store) SetRelProp(r *value.Relationship, key string, v value.Value) {
	old, had := r.Props[key]
	if v.IsNull() {
		if !had {
			return
		}
		delete(r.Props, key)
	} else {
		if had && value.Equivalent(old, v) {
			return
		}
		r.Props[key] = v
	}
	if s.graph.Rel(r.ID) == r {
		s.noteRel(r.ID, deltaUpdated)
	}
}

// DeleteRel removes relationship r.
func (s *Store) DeleteRel(r *value.Relationship) {
	s.out[r.StartID] = removeRel(s.out[r.StartID], r.ID)
	s.in[r.EndID] = removeRel(s.in[r.EndID], r.ID)
	typ := symtab.Intern(r.Type)
	if s.outTDone[r.StartID] {
		outKey := adjKey{r.StartID, typ}
		if rels := removeRel(s.outT[outKey], r.ID); len(rels) > 0 {
			s.outT[outKey] = rels
		} else {
			delete(s.outT, outKey)
		}
	}
	if s.inTDone[r.EndID] {
		inKey := adjKey{r.EndID, typ}
		if rels := removeRel(s.inT[inKey], r.ID); len(rels) > 0 {
			s.inT[inKey] = rels
		} else {
			delete(s.inT, inKey)
		}
	}
	if s.relType[typ]--; s.relType[typ] <= 0 {
		delete(s.relType, typ)
	}
	s.graph.RemoveRel(r.ID)
	s.noteRel(r.ID, deltaRemoved)
}

// DeleteNode removes node n. If detach is true its relationships are
// removed first; otherwise deleting a node with relationships is an
// error, matching Cypher's DELETE vs DETACH DELETE. Afterwards no index
// holds a key naming n: a long-lived store (the rolling window store)
// sees a fresh id space every window, so a stale key is a leak.
func (s *Store) DeleteNode(n *value.Node, detach bool) error {
	if deg := len(s.out[n.ID]) + len(s.in[n.ID]); deg > 0 && !detach {
		return &NotDetachedError{NodeID: n.ID, Rels: deg}
	}
	// Delete from the back of each list so DeleteRel's in-place removal
	// never shifts an element we have yet to visit; a self-loop leaves
	// both lists at once and is deleted once.
	for rels := s.out[n.ID]; len(rels) > 0; rels = s.out[n.ID] {
		s.DeleteRel(rels[len(rels)-1])
	}
	for rels := s.in[n.ID]; len(rels) > 0; rels = s.in[n.ID] {
		s.DeleteRel(rels[len(rels)-1])
	}
	delete(s.out, n.ID)
	delete(s.in, n.ID)
	s.idxMu.Lock()
	delete(s.outTDone, n.ID)
	delete(s.inTDone, n.ID)
	s.idxMu.Unlock()
	for _, l := range n.Labels {
		id := symtab.Lookup(l)
		s.label[id] = removeNodeSorted(s.label[id], n.ID)
	}
	s.propIndexRemoveNode(n)
	s.graph.RemoveNode(n.ID)
	s.noteNode(n.ID, deltaRemoved)
	return nil
}

// NotDetachedError is returned when DELETE targets a node that still
// has relationships and DETACH was not specified.
type NotDetachedError struct {
	NodeID int64
	Rels   int
}

func (e *NotDetachedError) Error() string {
	return "graphstore: cannot delete node with relationships (use DETACH DELETE)"
}

// removeRel deletes relationship id from rels, nilling the vacated
// slot so the backing array does not retain the relationship.
func removeRel(rels []*value.Relationship, id int64) []*value.Relationship {
	for i, r := range rels {
		if r.ID == id {
			return slices.Delete(rels, i, i+1)
		}
	}
	return rels
}
