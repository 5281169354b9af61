// Package tgm implements the paper's typed graph model (Section 4): the
// TGDB schema graph G_S of node types and edge types (Definition 1) and
// the TGDB instance graph G_I of nodes and edges (Definition 2). ETable
// query patterns are evaluated over these graphs rather than over the
// relational database directly; internal/translate builds them from a
// relational schema following Appendix A.
//
// An instance graph keeps its node attributes column-major, one
// value.Column per (node type, attribute): AttrColumn and PinAttrColumn
// hand a column out whole, an out-of-core graph faults columns in
// through a ColumnSource, and AttrRank orders a column once per graph.
package tgm

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// NodeTypeKind records how a node type was derived from the relational
// schema (the paper's Table 1 categories).
type NodeTypeKind uint8

// Node type categories.
const (
	// NodeEntity is a node type built from an entity table.
	NodeEntity NodeTypeKind = iota
	// NodeMultiValued is a node type built from a multivalued-attribute
	// relation (e.g. Paper_Keywords.keyword).
	NodeMultiValued
	// NodeCategorical is a node type built from a low-cardinality
	// single-valued attribute (e.g. Papers.year).
	NodeCategorical
)

// String returns the Table 1 category name.
func (k NodeTypeKind) String() string {
	switch k {
	case NodeEntity:
		return "entity table"
	case NodeMultiValued:
		return "multi-valued attribute"
	case NodeCategorical:
		return "single-valued categorical attribute"
	default:
		return "?"
	}
}

// EdgeTypeKind records how an edge type was derived (Table 1).
type EdgeTypeKind uint8

// Edge type categories.
const (
	// EdgeOneToMany is derived from a foreign key between entity tables.
	EdgeOneToMany EdgeTypeKind = iota
	// EdgeManyToMany is derived from a relationship relation with a
	// composite primary key of two foreign keys.
	EdgeManyToMany
	// EdgeMultiValued connects an entity to a multivalued-attribute node.
	EdgeMultiValued
	// EdgeCategorical connects an entity to a categorical-attribute node.
	EdgeCategorical
)

// String returns the Table 1 category name.
func (k EdgeTypeKind) String() string {
	switch k {
	case EdgeOneToMany:
		return "one-to-many relationship"
	case EdgeManyToMany:
		return "many-to-many relationship"
	case EdgeMultiValued:
		return "multi-valued attribute"
	case EdgeCategorical:
		return "single-valued categorical attribute"
	default:
		return "?"
	}
}

// Attr is one single-valued attribute of a node type.
type Attr struct {
	Name string
	Type value.Kind
}

// NodeType is τ_i = (α_i, A_i, β_i) from Definition 1: a name, a set of
// single-valued attributes, and a label attribute used to render node
// instances.
type NodeType struct {
	Name  string
	Attrs []Attr
	// Label is the β label attribute name; it must name one of Attrs.
	Label string
	// Key is the identifying attribute (the entity table's primary key,
	// or the single attribute of an attribute node type). The Single and
	// Seeall user-level actions select nodes through it. Defaults to the
	// first attribute.
	Key  string
	Kind NodeTypeKind
	// SourceTable is the relational table (or table.column for attribute
	// node types) this type was translated from, for provenance.
	SourceTable string
}

// AttrIndex returns the ordinal of the named attribute, or -1.
func (nt *NodeType) AttrIndex(name string) int {
	for i, a := range nt.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// LabelIndex returns the ordinal of the label attribute.
func (nt *NodeType) LabelIndex() int { return nt.AttrIndex(nt.Label) }

// EdgeType is ρ ∈ P from Definition 1: a directed, named connection
// between two node types. All edge types except self-loops are stored in
// both directions; Reverse names the opposite-direction edge type.
type EdgeType struct {
	Name   string
	Source string // source node type name
	Target string // target node type name
	// Label is the display name shown as a column header in ETable
	// (Appendix A: "the name of the target node type", disambiguated when
	// reused — e.g. "Papers (referenced)"). Defaults to Target.
	Label string
	Kind  EdgeTypeKind
	// Reverse is the name of the reverse-direction edge type ("" for
	// self-paired types).
	Reverse string
	// SourceTable is the relational provenance: the FK's owning table or
	// the relationship relation.
	SourceTable string
}

// SchemaGraph is G_S = (T, P) from Definition 1.
type SchemaGraph struct {
	nodeTypes map[string]*NodeType
	edgeTypes map[string]*EdgeType
	// out indexes edge types by source node type, in insertion order.
	out map[string][]*EdgeType
	// order preserves node type insertion order for display.
	order []string
}

// NewSchemaGraph returns an empty schema graph.
func NewSchemaGraph() *SchemaGraph {
	return &SchemaGraph{
		nodeTypes: make(map[string]*NodeType),
		edgeTypes: make(map[string]*EdgeType),
		out:       make(map[string][]*EdgeType),
	}
}

// AddNodeType registers a node type. The label must name an attribute.
func (g *SchemaGraph) AddNodeType(nt NodeType) (*NodeType, error) {
	if nt.Name == "" {
		return nil, fmt.Errorf("tgm: node type with empty name")
	}
	if _, dup := g.nodeTypes[nt.Name]; dup {
		return nil, fmt.Errorf("tgm: duplicate node type %q", nt.Name)
	}
	if len(nt.Attrs) == 0 {
		return nil, fmt.Errorf("tgm: node type %q has no attributes", nt.Name)
	}
	if nt.AttrIndex(nt.Label) < 0 {
		return nil, fmt.Errorf("tgm: node type %q label %q is not an attribute", nt.Name, nt.Label)
	}
	if nt.Key == "" {
		nt.Key = nt.Attrs[0].Name
	} else if nt.AttrIndex(nt.Key) < 0 {
		return nil, fmt.Errorf("tgm: node type %q key %q is not an attribute", nt.Name, nt.Key)
	}
	cp := nt
	cp.Attrs = append([]Attr(nil), nt.Attrs...)
	g.nodeTypes[nt.Name] = &cp
	g.order = append(g.order, nt.Name)
	return &cp, nil
}

// AddEdgeType registers a directed edge type; source and target must be
// registered node types.
func (g *SchemaGraph) AddEdgeType(et EdgeType) (*EdgeType, error) {
	if et.Name == "" {
		return nil, fmt.Errorf("tgm: edge type with empty name")
	}
	if _, dup := g.edgeTypes[et.Name]; dup {
		return nil, fmt.Errorf("tgm: duplicate edge type %q", et.Name)
	}
	if _, ok := g.nodeTypes[et.Source]; !ok {
		return nil, fmt.Errorf("tgm: edge type %q has unknown source %q", et.Name, et.Source)
	}
	if _, ok := g.nodeTypes[et.Target]; !ok {
		return nil, fmt.Errorf("tgm: edge type %q has unknown target %q", et.Name, et.Target)
	}
	cp := et
	if cp.Label == "" {
		cp.Label = cp.Target
	}
	g.edgeTypes[et.Name] = &cp
	g.out[et.Source] = append(g.out[et.Source], &cp)
	return &cp, nil
}

// AddBidirectional registers et and its reverse ("<name>_rev" unless the
// edge is a self-loop, which the paper leaves unidirectional), linking
// the two through Reverse. It returns the forward edge type.
func (g *SchemaGraph) AddBidirectional(et EdgeType) (*EdgeType, error) {
	if et.Source == et.Target {
		return g.AddEdgeType(et)
	}
	rev := et
	rev.Name = et.Name + "_rev"
	rev.Source, rev.Target = et.Target, et.Source
	rev.Label = ""
	rev.Reverse = et.Name
	et.Reverse = rev.Name
	fwd, err := g.AddEdgeType(et)
	if err != nil {
		return nil, err
	}
	if _, err := g.AddEdgeType(rev); err != nil {
		return nil, err
	}
	return fwd, nil
}

// NodeType returns the named node type, or nil.
func (g *SchemaGraph) NodeType(name string) *NodeType { return g.nodeTypes[name] }

// EdgeType returns the named edge type, or nil.
func (g *SchemaGraph) EdgeType(name string) *EdgeType { return g.edgeTypes[name] }

// NodeTypes returns all node types in insertion order.
func (g *SchemaGraph) NodeTypes() []*NodeType {
	out := make([]*NodeType, len(g.order))
	for i, n := range g.order {
		out[i] = g.nodeTypes[n]
	}
	return out
}

// EdgeTypes returns all edge types sorted by name.
func (g *SchemaGraph) EdgeTypes() []*EdgeType {
	names := make([]string, 0, len(g.edgeTypes))
	for n := range g.edgeTypes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*EdgeType, len(names))
	for i, n := range names {
		out[i] = g.edgeTypes[n]
	}
	return out
}

// OutEdges returns the edge types whose source is the named node type.
// These are exactly the candidates for the paper's "neighbor node
// columns" (A_h in §5.4.2).
func (g *SchemaGraph) OutEdges(nodeType string) []*EdgeType {
	return g.out[nodeType]
}
