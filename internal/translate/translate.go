// Package translate implements the paper's Appendix A: the near-automatic
// reverse-engineering procedure that turns a relational database into a
// TGDB schema graph and instance graph. It classifies relations into
// entity relations, relationship relations (many-to-many), and
// multivalued-attribute relations, identifies one-to-many relationships
// from foreign keys, and optionally lifts low-cardinality attributes into
// categorical node types (the paper's Table 1).
//
// Appendix A assumptions apply: relations are in BCNF/3NF, relationships
// are binary, relationship relations carry only foreign keys (other
// attributes are ignored), and multivalued-attribute relations have
// exactly two columns.
package translate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/tgm"
	"repro/internal/value"
)

// Options controls translation.
type Options struct {
	// Labels overrides the label attribute per table (Appendix A: "we
	// also allow users to manually pick a desired label attribute").
	Labels map[string]string
	// CategoricalAttrs lists attributes to lift into categorical node
	// types, as "Table.column".
	CategoricalAttrs []string
	// AutoCategorical additionally lifts every non-key attribute whose
	// cardinality is at most MaxCategoricalCardinality.
	AutoCategorical bool
	// MaxCategoricalCardinality is the auto-detection threshold
	// (Appendix A suggests "less than 30"; default 30).
	MaxCategoricalCardinality int
}

// RelationClass classifies a relation per Appendix A.
type RelationClass uint8

// Relation classes.
const (
	ClassEntity RelationClass = iota
	ClassRelationship
	ClassMultiValued
)

// String names the class.
func (c RelationClass) String() string {
	switch c {
	case ClassEntity:
		return "entity relation"
	case ClassRelationship:
		return "relationship relation"
	case ClassMultiValued:
		return "multivalued attribute relation"
	default:
		return "?"
	}
}

// ClassifiedRelation records how one relation was classified and why
// (the "determining factor" column of the paper's Table 1).
type ClassifiedRelation struct {
	Table             string
	Class             RelationClass
	DeterminingFactor string
}

// Result is the output of a translation.
type Result struct {
	Schema   *tgm.SchemaGraph
	Instance *tgm.InstanceGraph
	// Relations records the classification of every input relation.
	Relations []ClassifiedRelation
	// CategoricalLifted lists "Table.column" attributes that became
	// categorical node types.
	CategoricalLifted []string
	// EntityPK maps each entity node type to its primary-key attribute.
	EntityPK map[string]string
	// FKEdges maps "Table.fk_column" to the edge type created for that
	// foreign key (forward direction: owning table → referenced table).
	FKEdges map[string]string
	// RelEdges maps a relationship relation name to its edge type
	// (forward direction: first PK column's target → second's).
	RelEdges map[string]string
	// MVEdges maps a multivalued-attribute relation name to the edge type
	// connecting the entity to the attribute node type.
	MVEdges map[string]string
	// RelEndpoints maps a relationship relation name to its two primary-key
	// foreign-key columns, in schema order. The first column's referenced
	// entity is the edge type's source; the second's is its target.
	RelEndpoints map[string][2]string
}

// Translate runs schema and instance translation over db.
func Translate(db *relational.DB, opts Options) (*Result, error) {
	tr := &translator{db: db, opts: opts, res: &Result{Schema: tgm.NewSchemaGraph()}}
	if tr.opts.MaxCategoricalCardinality == 0 {
		tr.opts.MaxCategoricalCardinality = 30
	}
	if err := tr.classify(); err != nil {
		return nil, err
	}
	if err := tr.buildSchema(); err != nil {
		return nil, err
	}
	if err := tr.buildInstance(); err != nil {
		return nil, err
	}
	// The instance graph is immutable from here on (the paper's system
	// serves an unchanging TGDB); freezing makes the contract checkable
	// and unlocks lock-free concurrent reads in the serving stack.
	tr.res.Instance.Freeze()
	return tr.res, nil
}

type translator struct {
	db   *relational.DB
	opts Options
	res  *Result

	entities      []string // entity table names, sorted
	relationships []string // m:n relationship relation names
	multivalued   []string // multivalued attribute relation names
	// nodeIDs maps entity table → PK value key → node ID.
	nodeIDs map[string]map[string]tgm.NodeID
	// attrNodeIDs maps attribute node type name → value key → node ID.
	attrNodeIDs map[string]map[string]tgm.NodeID
	// edgeNames maps provenance to the created edge type name.
	fkEdge map[string]string // "table.col" → edge type name
	mvEdge map[string]string // multivalued table → edge type name
	ctEdge map[string]string // "table.col" categorical → edge type name
	// categorical attributes per entity table.
	categoricals map[string][]string
}

// isRelationshipRelation reports whether the schema matches Appendix A's
// many-to-many pattern: a composite primary key of exactly two columns,
// each a foreign key to an entity relation.
func isRelationshipRelation(s *relational.Schema) bool {
	if len(s.PrimaryKey) != 2 {
		return false
	}
	for _, k := range s.PrimaryKey {
		if _, ok := s.IsForeignKey(k); !ok {
			return false
		}
	}
	return true
}

// isMultiValuedRelation reports whether the schema matches Appendix A's
// multivalued-attribute pattern: exactly two columns, both forming the
// primary key, the first a foreign key and the second not.
func isMultiValuedRelation(s *relational.Schema) bool {
	if len(s.Columns) != 2 || len(s.PrimaryKey) != 2 {
		return false
	}
	_, firstFK := s.IsForeignKey(s.Columns[0].Name)
	_, secondFK := s.IsForeignKey(s.Columns[1].Name)
	return firstFK && !secondFK
}

func (tr *translator) classify() error {
	for _, name := range tr.db.TableNames() {
		t, err := tr.db.Table(name)
		if err != nil {
			return err
		}
		s := t.Schema()
		switch {
		case isMultiValuedRelation(s):
			tr.multivalued = append(tr.multivalued, name)
			tr.res.Relations = append(tr.res.Relations, ClassifiedRelation{
				Table: name, Class: ClassMultiValued,
				DeterminingFactor: "relation with two attributes; one of them is a foreign key of an entity relation",
			})
		case isRelationshipRelation(s):
			tr.relationships = append(tr.relationships, name)
			tr.res.Relations = append(tr.res.Relations, ClassifiedRelation{
				Table: name, Class: ClassRelationship,
				DeterminingFactor: "relation with a composite primary key; both are foreign keys of entity relations",
			})
		default:
			tr.entities = append(tr.entities, name)
			tr.res.Relations = append(tr.res.Relations, ClassifiedRelation{
				Table: name, Class: ClassEntity,
				DeterminingFactor: "relation with a single-attribute primary key",
			})
		}
	}
	if len(tr.entities) == 0 {
		return fmt.Errorf("translate: no entity relations found")
	}
	// Verify relationship/multivalued FKs reference entity relations.
	entitySet := map[string]bool{}
	for _, e := range tr.entities {
		entitySet[e] = true
	}
	for _, lists := range [][]string{tr.relationships, tr.multivalued} {
		for _, name := range lists {
			t, _ := tr.db.Table(name)
			for _, fk := range t.Schema().ForeignKeys {
				if !entitySet[fk.RefTable] {
					return fmt.Errorf("translate: %s.%s references non-entity relation %s",
						name, fk.Col, fk.RefTable)
				}
			}
		}
	}
	return nil
}

// chooseLabel implements the Appendix A label heuristics: prefer
// user-chosen labels, then text-typed attributes that are neither keys
// nor foreign keys (with a bonus for name-like attribute names), then
// any non-key attribute, then the primary key.
func (tr *translator) chooseLabel(s *relational.Schema) string {
	if l, ok := tr.opts.Labels[s.Name]; ok && s.HasColumn(l) {
		return l
	}
	best, bestScore := "", -1
	for _, c := range s.Columns {
		score := 0
		if _, isFK := s.IsForeignKey(c.Name); isFK {
			continue
		}
		if s.InPrimaryKey(c.Name) {
			score -= 10
		}
		if c.Type == value.KindString {
			score += 10
		}
		switch strings.ToLower(c.Name) {
		case "name", "title", "label":
			score += 5
		case "acronym", "short":
			// Short identifying codes beat long titles (the paper labels
			// Conferences by acronym, not title; Figure 1).
			score += 6
		}
		if score > bestScore {
			best, bestScore = c.Name, score
		}
	}
	if best == "" {
		best = s.Columns[0].Name
	}
	return best
}

// edgeTypeName builds a unique, human-oriented edge type name.
func (tr *translator) edgeTypeName(base string) string {
	if tr.res.Schema.EdgeType(base) == nil {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s#%d", base, i)
		if tr.res.Schema.EdgeType(name) == nil {
			return name
		}
	}
}

func (tr *translator) buildSchema() error {
	g := tr.res.Schema
	tr.fkEdge = make(map[string]string)
	tr.mvEdge = make(map[string]string)
	tr.ctEdge = make(map[string]string)
	tr.categoricals = make(map[string][]string)
	tr.res.FKEdges = tr.fkEdge
	tr.res.MVEdges = make(map[string]string)
	tr.res.RelEdges = make(map[string]string)
	tr.res.RelEndpoints = make(map[string][2]string)

	// Step 1: entity relations → node types.
	for _, name := range tr.entities {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		attrs := make([]tgm.Attr, len(s.Columns))
		for i, c := range s.Columns {
			attrs[i] = tgm.Attr{Name: c.Name, Type: c.Type}
		}
		if len(s.PrimaryKey) != 1 {
			return fmt.Errorf("translate: entity relation %s must have a single-attribute primary key", name)
		}
		if _, err := g.AddNodeType(tgm.NodeType{
			Name: name, Attrs: attrs, Label: tr.chooseLabel(s), Key: s.PrimaryKey[0],
			Kind: tgm.NodeEntity, SourceTable: name,
		}); err != nil {
			return err
		}
	}

	// Step 2: foreign keys between entity relations → 1:n edge types.
	for _, name := range tr.entities {
		t, _ := tr.db.Table(name)
		for _, fk := range t.Schema().ForeignKeys {
			if g.NodeType(fk.RefTable) == nil {
				return fmt.Errorf("translate: %s.%s references unknown entity %s",
					name, fk.Col, fk.RefTable)
			}
			base := fmt.Sprintf("%s→%s", name, fk.RefTable)
			en := tr.edgeTypeName(base)
			if _, err := g.AddBidirectional(tgm.EdgeType{
				Name: en, Source: name, Target: fk.RefTable,
				Kind: tgm.EdgeOneToMany, SourceTable: name + "." + fk.Col,
			}); err != nil {
				return err
			}
			tr.fkEdge[name+"."+fk.Col] = en
		}
	}

	// Step 3: relationship relations → m:n edge types. Self-relationships
	// (e.g. Paper_References) get explicit forward/reverse pairs named
	// "(referenced)"/"(referencing)" as in the paper's Figure 1.
	for _, name := range tr.relationships {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		fk1, _ := s.IsForeignKey(s.PrimaryKey[0])
		fk2, _ := s.IsForeignKey(s.PrimaryKey[1])
		tr.res.RelEndpoints[name] = [2]string{s.PrimaryKey[0], s.PrimaryKey[1]}
		if fk1.RefTable == fk2.RefTable {
			fwdName := tr.edgeTypeName(name)
			revName := fwdName + "_rev"
			if _, err := g.AddEdgeType(tgm.EdgeType{
				Name: fwdName, Source: fk1.RefTable, Target: fk2.RefTable,
				Label: fmt.Sprintf("%s (referenced)", fk2.RefTable),
				Kind:  tgm.EdgeManyToMany, Reverse: revName, SourceTable: name,
			}); err != nil {
				return err
			}
			if _, err := g.AddEdgeType(tgm.EdgeType{
				Name: revName, Source: fk2.RefTable, Target: fk1.RefTable,
				Label: fmt.Sprintf("%s (referencing)", fk1.RefTable),
				Kind:  tgm.EdgeManyToMany, Reverse: fwdName, SourceTable: name,
			}); err != nil {
				return err
			}
			tr.mvEdgeForRelationship(name, fwdName)
			continue
		}
		en := tr.edgeTypeName(name)
		if _, err := g.AddBidirectional(tgm.EdgeType{
			Name: en, Source: fk1.RefTable, Target: fk2.RefTable,
			Kind: tgm.EdgeManyToMany, SourceTable: name,
		}); err != nil {
			return err
		}
		tr.mvEdgeForRelationship(name, en)
	}

	// Step 4: multivalued attribute relations → attribute node types.
	for _, name := range tr.multivalued {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		fk, _ := s.IsForeignKey(s.Columns[0].Name)
		valCol := s.Columns[1]
		ntName := fmt.Sprintf("%s: %s", name, valCol.Name)
		if _, err := g.AddNodeType(tgm.NodeType{
			Name:  ntName,
			Attrs: []tgm.Attr{{Name: valCol.Name, Type: valCol.Type}},
			Label: valCol.Name, Kind: tgm.NodeMultiValued,
			SourceTable: name,
		}); err != nil {
			return err
		}
		en := tr.edgeTypeName(fmt.Sprintf("%s→%s", fk.RefTable, ntName))
		if _, err := g.AddBidirectional(tgm.EdgeType{
			Name: en, Source: fk.RefTable, Target: ntName,
			Label: ntName, Kind: tgm.EdgeMultiValued, SourceTable: name,
		}); err != nil {
			return err
		}
		tr.mvEdge[name] = en
		tr.res.MVEdges[name] = en
	}

	// Step 5 (optional): categorical attributes → attribute node types.
	cats, err := tr.selectCategoricals()
	if err != nil {
		return err
	}
	for _, tc := range cats {
		dot := strings.IndexByte(tc, '.')
		table, col := tc[:dot], tc[dot+1:]
		t, _ := tr.db.Table(table)
		ci := t.Schema().ColumnIndex(col)
		ntName := fmt.Sprintf("%s: %s", table, col)
		if g.NodeType(ntName) != nil {
			continue
		}
		if _, err := g.AddNodeType(tgm.NodeType{
			Name:  ntName,
			Attrs: []tgm.Attr{{Name: col, Type: t.Schema().Columns[ci].Type}},
			Label: col, Kind: tgm.NodeCategorical,
			SourceTable: table + "." + col,
		}); err != nil {
			return err
		}
		en := tr.edgeTypeName(fmt.Sprintf("%s→%s", table, ntName))
		if _, err := g.AddBidirectional(tgm.EdgeType{
			Name: en, Source: table, Target: ntName,
			Label: ntName, Kind: tgm.EdgeCategorical, SourceTable: table + "." + col,
		}); err != nil {
			return err
		}
		tr.ctEdge[tc] = en
		tr.categoricals[table] = append(tr.categoricals[table], col)
		tr.res.CategoricalLifted = append(tr.res.CategoricalLifted, tc)
	}
	return nil
}

// mvEdgeForRelationship records the edge name for a relationship table.
func (tr *translator) mvEdgeForRelationship(table, edge string) {
	tr.mvEdge[table] = edge
	tr.res.RelEdges[table] = edge
}

// selectCategoricals resolves explicit selections plus auto-detection.
func (tr *translator) selectCategoricals() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(tc string) {
		if !seen[tc] {
			seen[tc] = true
			out = append(out, tc)
		}
	}
	for _, tc := range tr.opts.CategoricalAttrs {
		dot := strings.IndexByte(tc, '.')
		if dot < 0 {
			return nil, fmt.Errorf("translate: categorical attribute %q must be Table.column", tc)
		}
		table, col := tc[:dot], tc[dot+1:]
		t, err := tr.db.Table(table)
		if err != nil {
			return nil, err
		}
		s := t.Schema()
		if !s.HasColumn(col) {
			return nil, fmt.Errorf("translate: no column %q in table %q", col, table)
		}
		if _, isFK := s.IsForeignKey(col); isFK || s.InPrimaryKey(col) {
			return nil, fmt.Errorf("translate: categorical attribute %s must not be a key", tc)
		}
		add(tc)
	}
	if tr.opts.AutoCategorical {
		for _, name := range tr.entities {
			t, _ := tr.db.Table(name)
			s := t.Schema()
			for ci, c := range s.Columns {
				if s.InPrimaryKey(c.Name) {
					continue
				}
				if _, isFK := s.IsForeignKey(c.Name); isFK {
					continue
				}
				distinct := map[string]bool{}
				ok := true
				for _, r := range t.Rows() {
					distinct[r[ci].Key()] = true
					if len(distinct) > tr.opts.MaxCategoricalCardinality {
						ok = false
						break
					}
				}
				if ok && len(distinct) > 1 {
					add(name + "." + c.Name)
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func (tr *translator) buildInstance() error {
	g := tgm.NewInstanceGraph(tr.res.Schema)
	tr.res.Instance = g
	tr.res.EntityPK = make(map[string]string)
	tr.nodeIDs = make(map[string]map[string]tgm.NodeID)
	tr.attrNodeIDs = make(map[string]map[string]tgm.NodeID)

	// Entity rows → nodes.
	for _, name := range tr.entities {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		pkIdx := s.ColumnIndex(s.PrimaryKey[0])
		tr.res.EntityPK[name] = s.PrimaryKey[0]
		m := make(map[string]tgm.NodeID, t.Len())
		tr.nodeIDs[name] = m
		for _, r := range t.Rows() {
			id, err := g.AddNode(name, r)
			if err != nil {
				return err
			}
			m[r[pkIdx].Key()] = id
		}
	}

	// Foreign keys → 1:n edges.
	for _, name := range tr.entities {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		for _, fk := range s.ForeignKeys {
			edgeName := tr.fkEdge[name+"."+fk.Col]
			ci := s.ColumnIndex(fk.Col)
			srcIDs := tr.nodeIDs[name]
			dstIDs := tr.nodeIDs[fk.RefTable]
			for _, r := range t.Rows() {
				v := r[ci]
				if v.IsNull() {
					continue
				}
				dst, ok := dstIDs[v.Key()]
				if !ok {
					return fmt.Errorf("translate: %s.%s=%v has no referenced %s row",
						name, fk.Col, v, fk.RefTable)
				}
				srcPK := r[s.ColumnIndex(s.PrimaryKey[0])]
				if err := g.AddEdge(edgeName, srcIDs[srcPK.Key()], dst); err != nil {
					return err
				}
			}
		}
	}

	// Relationship rows → m:n edges.
	for _, name := range tr.relationships {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		fk1, _ := s.IsForeignKey(s.PrimaryKey[0])
		fk2, _ := s.IsForeignKey(s.PrimaryKey[1])
		c1, c2 := s.ColumnIndex(s.PrimaryKey[0]), s.ColumnIndex(s.PrimaryKey[1])
		edgeName := tr.mvEdge[name]
		ids1, ids2 := tr.nodeIDs[fk1.RefTable], tr.nodeIDs[fk2.RefTable]
		for _, r := range t.Rows() {
			src, ok1 := ids1[r[c1].Key()]
			dst, ok2 := ids2[r[c2].Key()]
			if !ok1 || !ok2 {
				return fmt.Errorf("translate: %s row (%v, %v) references missing entities",
					name, r[c1], r[c2])
			}
			if err := g.AddEdge(edgeName, src, dst); err != nil {
				return err
			}
		}
	}

	// Multivalued attribute rows → attribute nodes + edges.
	for _, name := range tr.multivalued {
		t, _ := tr.db.Table(name)
		s := t.Schema()
		fk, _ := s.IsForeignKey(s.Columns[0].Name)
		ntName := fmt.Sprintf("%s: %s", name, s.Columns[1].Name)
		edgeName := tr.mvEdge[name]
		vals := make(map[string]tgm.NodeID)
		tr.attrNodeIDs[ntName] = vals
		entIDs := tr.nodeIDs[fk.RefTable]
		for _, r := range t.Rows() {
			ent, ok := entIDs[r[0].Key()]
			if !ok {
				return fmt.Errorf("translate: %s row references missing %s", name, fk.RefTable)
			}
			vid, ok := vals[r[1].Key()]
			if !ok {
				var err error
				vid, err = g.AddNode(ntName, []value.V{r[1]})
				if err != nil {
					return err
				}
				vals[r[1].Key()] = vid
			}
			if err := g.AddEdge(edgeName, ent, vid); err != nil {
				return err
			}
		}
	}

	// Categorical attributes → attribute nodes + edges, table by table
	// in name order: node IDs are handed out in insertion order, so map
	// order here would give two translations of one database different
	// IDs.
	tables := make([]string, 0, len(tr.categoricals))
	for table := range tr.categoricals {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		cols := tr.categoricals[table]
		t, _ := tr.db.Table(table)
		s := t.Schema()
		entIDs := tr.nodeIDs[table]
		pkIdx := s.ColumnIndex(s.PrimaryKey[0])
		for _, col := range cols {
			ci := s.ColumnIndex(col)
			ntName := fmt.Sprintf("%s: %s", table, col)
			edgeName := tr.ctEdge[table+"."+col]
			vals := make(map[string]tgm.NodeID)
			tr.attrNodeIDs[ntName] = vals
			for _, r := range t.Rows() {
				v := r[ci]
				if v.IsNull() {
					continue
				}
				vid, ok := vals[v.Key()]
				if !ok {
					var err error
					vid, err = g.AddNode(ntName, []value.V{v})
					if err != nil {
						return err
					}
					vals[v.Key()] = vid
				}
				if err := g.AddEdge(edgeName, entIDs[r[pkIdx].Key()], vid); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NodeIDForPK returns the instance node for an entity table row by its
// primary key value. It is exported for loaders and tests.
func (r *Result) NodeIDForPK(table string, pk value.V) (tgm.NodeID, bool) {
	nt := r.Schema.NodeType(table)
	if nt == nil || nt.Kind != tgm.NodeEntity {
		return 0, false
	}
	n, ok := r.Instance.FindNode(table, r.EntityPK[table], pk)
	if !ok {
		return 0, false
	}
	return n.ID, true
}
