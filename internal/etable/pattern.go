package etable

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// PatternNode is one participating node type t_i ∈ T with its selection
// condition C_i. Key distinguishes repeated occurrences of a node type
// within one pattern ("Papers", "Papers#2", …).
type PatternNode struct {
	Key  string
	Type string
	// Cond is the node's selection condition (nil when unconstrained).
	Cond expr.Expr
	// CondSrc is the user-facing text of Cond, preserved for display in
	// the history and schema views.
	CondSrc string
}

// PatternEdge is one participating edge type p_i ∈ P connecting two
// pattern nodes. EdgeType is the schema edge type oriented From → To.
type PatternEdge struct {
	EdgeType string
	From, To string // pattern node keys
}

// Pattern is the ETable query specification Q = (τa, T, P, C). Patterns
// are immutable: the primitive operators return updated copies, which is
// what lets the history view revert to any prior state cheaply.
type Pattern struct {
	// Primary is the key of the primary node type τa; each result row
	// represents one instance of it.
	Primary string
	Nodes   []PatternNode
	Edges   []PatternEdge

	// sig and str memoize Signature and String. They are only ever set
	// after the pattern has been fully built (operators and the SQL
	// bridge mutate their private copy, then hand it off), so a stored
	// value can never go stale. Concurrent first calls may both compute
	// one; they store identical strings, so last-write-wins is harmless.
	sig, str atomic.Pointer[string]

	// from is the pattern this one was cloned from — the state an
	// operator applied its delta to. It is a hint for the match engine
	// (a resident ancestor's match can be extended instead of re-joined
	// from the bases, see deriveFrom) and is never trusted without a
	// structural check. Patterns built by hand have none.
	from *Pattern
}

// Clone returns a deep-enough copy (conditions are immutable and shared)
// that remembers p as the pattern it was derived from. Every operator
// goes through Clone.
func (p *Pattern) Clone() *Pattern {
	cp := &Pattern{Primary: p.Primary, from: p}
	cp.Nodes = append([]PatternNode(nil), p.Nodes...)
	cp.Edges = append([]PatternEdge(nil), p.Edges...)
	return cp
}

// Node returns the pattern node with the given key, or nil.
func (p *Pattern) Node(key string) *PatternNode {
	for i := range p.Nodes {
		if p.Nodes[i].Key == key {
			return &p.Nodes[i]
		}
	}
	return nil
}

// PrimaryNode returns the primary pattern node.
func (p *Pattern) PrimaryNode() *PatternNode { return p.Node(p.Primary) }

// freshKey returns a key for another occurrence of typeName.
func (p *Pattern) freshKey(typeName string) string {
	if p.Node(typeName) == nil {
		return typeName
	}
	for i := 2; ; i++ {
		k := fmt.Sprintf("%s#%d", typeName, i)
		if p.Node(k) == nil {
			return k
		}
	}
}

// Validate checks the pattern against a schema graph: node types and
// edge types exist, edges connect nodes present in the pattern with
// compatible types, the primary node exists, and the pattern graph is a
// connected acyclic graph (the paper requires an acyclic query pattern).
func (p *Pattern) Validate(schema *tgm.SchemaGraph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("etable: empty pattern")
	}
	seen := map[string]bool{}
	for _, n := range p.Nodes {
		if seen[n.Key] {
			return fmt.Errorf("etable: duplicate pattern node key %q", n.Key)
		}
		seen[n.Key] = true
		if schema.NodeType(n.Type) == nil {
			return fmt.Errorf("etable: pattern node %q has unknown type %q", n.Key, n.Type)
		}
	}
	if p.PrimaryNode() == nil {
		return fmt.Errorf("etable: primary node %q is not in the pattern", p.Primary)
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		return fmt.Errorf("etable: pattern must be a tree: %d nodes need %d edges, have %d",
			len(p.Nodes), len(p.Nodes)-1, len(p.Edges))
	}
	adj := map[string][]string{}
	for _, e := range p.Edges {
		et := schema.EdgeType(e.EdgeType)
		if et == nil {
			return fmt.Errorf("etable: unknown edge type %q", e.EdgeType)
		}
		from, to := p.Node(e.From), p.Node(e.To)
		if from == nil || to == nil {
			return fmt.Errorf("etable: edge %q connects missing nodes %q→%q", e.EdgeType, e.From, e.To)
		}
		if et.Source != from.Type || et.Target != to.Type {
			return fmt.Errorf("etable: edge %q requires %s→%s, pattern has %s→%s",
				e.EdgeType, et.Source, et.Target, from.Type, to.Type)
		}
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	// Connectivity (with n-1 edges, connected ⇒ acyclic).
	visited := map[string]bool{p.Nodes[0].Key: true}
	queue := []string{p.Nodes[0].Key}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != len(p.Nodes) {
		return fmt.Errorf("etable: pattern is disconnected")
	}
	return nil
}

// String renders the pattern in the diagrammatic notation of Figure 6,
// e.g. "Conferences{acronym = 'SIGMOD'} —[Conf-Papers]→ *Papers{year > 2005}"
// with the primary node marked by '*'. The rendering is memoized — one
// window read asks for it three times (the session's presentation key,
// the response's pattern field, the cursor fingerprint).
func (p *Pattern) String() string {
	if s := p.str.Load(); s != nil {
		return *s
	}
	s := p.render()
	p.str.Store(&s)
	return s
}

func (p *Pattern) render() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString("; ")
		}
		if n.Key == p.Primary {
			b.WriteByte('*')
		}
		b.WriteString(n.Key)
		if n.CondSrc != "" {
			fmt.Fprintf(&b, "{%s}", n.CondSrc)
		}
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "; %s—[%s]→%s", e.From, e.EdgeType, e.To)
	}
	return b.String()
}
