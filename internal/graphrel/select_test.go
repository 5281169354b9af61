package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// Value pools of the selection parity fuzz: every edge value.Compare
// and the LIKE matcher distinguish.
var (
	parityNums = []value.V{
		value.Null, value.Int(0), value.Int(1), value.Int(-1), value.Int(7),
		value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(1.5),
		value.Float(-2.25), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Float(9.223372036854776e18), value.Bool(true), value.Bool(false), value.Str("7"),
	}
	parityStrs = []value.V{
		value.Null, value.Str(""), value.Str("a"), value.Str("abc"), value.Str("ABC"),
		value.Str("a%c"), value.Str("a_c"), value.Str(`a\c`), value.Str("%"), value.Str("_"),
		value.Str("é"), value.Str("Éa"), value.Str("日本語"), value.Str("zürich"), value.Str("an anna"),
		value.Int(3), value.Bool(false),
	}
	parityPatterns = []string{
		"%a%", "a%", "%c", "abc", "", "%", "_", "%_%", "__", "a_c", `a\%c`, `a\_c`, `%\\%`,
		"%é%", "_a", "%本%", "%%", "A%", "%AN%", "日_語", "%ü%", "Z%",
	}
)

// parityGraph builds the fuzz's instance graph: a filler type F, then
// node types I, U and C, each one run of IDs starting at a distinct
// non-zero ID (so a column read at id instead of id − lo shows), and an
// edge type I→U with fan-out on both sides, so the joined relation
// repeats nodes. Each of I and C holds every value pool cell at least
// once; the attributes are n and m (numbers) and s (strings), mixing
// kinds.
func parityGraph(t testing.TB) *tgm.InstanceGraph {
	t.Helper()
	attrs := []tgm.Attr{{Name: "n", Type: value.KindInt}, {Name: "m", Type: value.KindFloat}, {Name: "s", Type: value.KindString}}
	sg := tgm.NewSchemaGraph()
	for _, name := range []string{"F", "I", "U", "C"} {
		if _, err := sg.AddNodeType(tgm.NodeType{Name: name, Label: "s", Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sg.AddBidirectional(tgm.EdgeType{Name: "I-U", Source: "I", Target: "U"}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(sg)
	rows := len(parityNums) * len(parityStrs)
	row := func(i int) []value.V {
		return []value.V{parityNums[i%len(parityNums)], parityNums[(i/3)%len(parityNums)], parityStrs[i%len(parityStrs)]}
	}
	ids := map[string][]tgm.NodeID{}
	add := func(name string, n int, row func(int) []value.V) {
		for i := 0; i < n; i++ {
			id, err := g.AddNode(name, row(i))
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = append(ids[name], id)
		}
	}
	add("F", 3, row)
	add("I", rows, row)
	add("U", rows, row)
	add("C", rows, func(i int) []value.V { return row(rows - 1 - i) })
	is, us := ids["I"], ids["U"]
	for i, src := range is {
		for d := 0; d < i%4; d++ {
			if err := g.AddEdge("I-U", src, us[(i*7+d*13)%len(us)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

// condGen decodes fuzz bytes into a condition over columns n, m and s.
// Once the bytes run out every choice reads 0, which ends the tree at a
// leaf.
type condGen struct{ data []byte }

func (c *condGen) next(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

func (c *condGen) col() expr.Col { return expr.Col{Name: []string{"n", "m", "s", "I.n"}[c.next(4)]} }

func (c *condGen) constant() expr.Const {
	if c.next(2) == 0 {
		return expr.Const{Val: parityNums[c.next(len(parityNums))]}
	}
	return expr.Const{Val: parityStrs[c.next(len(parityStrs))]}
}

func (c *condGen) cond(depth int) expr.Expr {
	shape := c.next(13)
	if depth >= 4 && shape < 3 {
		shape += 3 // deep enough: a leaf
	}
	op := expr.CmpOp(c.next(6))
	switch shape {
	case 0:
		return expr.And{Left: c.cond(depth + 1), Right: c.cond(depth + 1)}
	case 1:
		return expr.Or{Left: c.cond(depth + 1), Right: c.cond(depth + 1)}
	case 2:
		return expr.Not{Inner: c.cond(depth + 1)}
	case 3:
		return expr.Cmp{Op: op, Left: c.col(), Right: c.constant()}
	case 4:
		return expr.Cmp{Op: op, Left: c.constant(), Right: c.col()}
	case 5:
		return expr.Like{Left: c.col(), Pattern: expr.Const{Val: value.Str(parityPatterns[c.next(len(parityPatterns))])},
			CaseFold: c.next(2) == 1, Negate: c.next(2) == 1}
	case 6:
		list := make([]expr.Expr, 1+c.next(3))
		for i := range list {
			list[i] = c.constant()
		}
		return expr.In{Left: c.col(), List: list, Negate: c.next(2) == 1}
	case 7:
		return expr.Between{Left: c.col(), Low: c.constant(), High: c.constant(), Negate: c.next(2) == 1}
	case 8:
		return expr.IsNull{Left: c.col(), Negate: c.next(2) == 1}
	case 9: // fallback: arithmetic
		return expr.Cmp{Op: op, Left: expr.Arith{Op: expr.ArithOp(c.next(5)), Left: c.col(), Right: c.constant()}, Right: c.constant()}
	case 10: // fallback: column against column
		return expr.Cmp{Op: op, Left: c.col(), Right: c.col()}
	case 11: // fallback: an Expr type the compiler does not know
		return truthOf{c.col()}
	default: // fallback: a bare column or constant as a condition
		if c.next(2) == 0 {
			return c.col()
		}
		return c.constant()
	}
}

// truthOf is an Expr type expr.Compile has no case for: the truth of a
// column's value.
type truthOf struct{ col expr.Col }

func (e truthOf) Eval(env expr.Env) (value.V, error) {
	v, err := e.col.Eval(env)
	if err != nil || v.IsNull() {
		return value.Null, err
	}
	return value.Bool(v.AsBool()), nil
}
func (e truthOf) String() string                { return "truth(" + e.col.Name + ")" }
func (e truthOf) Columns(dst []string) []string { return e.col.Columns(dst) }

// interpretedRows is the reference selection: Truthy per row, over the
// node's attributes.
func interpretedRows(t *testing.T, r *Relation, ai int, cond expr.Expr) []int32 {
	t.Helper()
	var keep []int32
	for i, id := range r.cols[ai] {
		n := r.g.Node(id)
		env := expr.MapEnv{}
		for a, attr := range n.Type.Attrs {
			env[attr.Name] = n.AttrAt(a)
		}
		ok, err := expr.Truthy(cond, env)
		if err != nil {
			t.Fatalf("%s: interpreted: %v", cond, err)
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// selectedRows asserts the serial Select keeps exactly the rows want of
// r, in order.
func selectedRows(t *testing.T, r *Relation, attr string, pred *expr.Pred, want []int32) {
	t.Helper()
	got, err := Select(r, attr, pred)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	assertIdenticalRelations(t, attr, got, r.gather(want))
}

// FuzzSelectParity checks the column-at-a-time selection against the
// interpreted reference: for a condition drawn from every kernel shape,
// AND/OR/NOT nesting and the per-row fallback shapes, Select keeps
// exactly the rows on which expr.Truthy holds — on two types whose ID
// runs start at different non-zero IDs, over arbitrary row ranges, and
// on a joined relation that repeats nodes. The seed corpus under
// testdata/fuzz/FuzzSelectParity names one shape per file.
func FuzzSelectParity(f *testing.F) {
	g := parityGraph(f)
	bases := map[string]*Relation{}
	for _, name := range []string{"I", "C", "U"} {
		r, err := base(g, name, name)
		if err != nil {
			f.Fatal(err)
		}
		bases[name] = r
	}
	joined, err := pairs(g, "I", "U", "I-U")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gen := &condGen{data: data}
		cond := gen.cond(0)
		for _, name := range []string{"I", "C"} {
			pred, err := expr.Compile(cond, bases[name].Attrs[0].Type)
			if err != nil {
				t.Fatalf("%s: compile: %v", cond, err)
			}
			want := interpretedRows(t, bases[name], 0, cond)
			selectedRows(t, bases[name], name, pred, want)

			// Any split into ranges concatenates to the same rows.
			b, err := pred.Bind(g)
			if err != nil {
				t.Fatal(err)
			}
			var got, keep []int32
			col, n := bases[name].cols[0], bases[name].Len()
			for lo, step := 0, 1; lo < n; lo, step = lo+step, step*3 {
				keep, err = b.Select(col, lo, min(lo+step, n), keep)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, keep...)
			}
			b.Release()
			if !slices.Equal(got, want) {
				t.Fatalf("%s over %s in ranges: %v, want %v", cond, name, got, want)
			}
		}
		pred, err := expr.Compile(cond, joined.Attrs[0].Type)
		if err != nil {
			t.Fatal(err)
		}
		selectedRows(t, joined, "I", pred, interpretedRows(t, joined, 0, cond))
	})
}

// TestSelectCorruptColumn is the out-of-core drill: on a lazily loaded
// snapshot whose column section is damaged, SelectSet over three
// morsels fails with the typed *snapshot.CorruptError rather than
// reading the column as NULL, and leaves nothing pinned; a selection
// over an intact column of the same type still runs.
func TestSelectCorruptColumn(t *testing.T) {
	sg := tgm.NewSchemaGraph()
	if _, err := sg.AddNodeType(tgm.NodeType{Name: "A", Label: "s",
		Attrs: []tgm.Attr{{Name: "k", Type: value.KindInt}, {Name: "s", Type: value.KindString}}}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(sg)
	const rows = 3 * MorselRows
	for i := 0; i < rows; i++ {
		if _, err := g.AddNode("A", []value.V{value.Int(int64(i)), value.Str(fmt.Sprintf("name %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	path := filepath.Join(t.TempDir(), "a.etsnap")
	if _, err := snapshot.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	// The last attribute's column ends NCOL: flip its last byte.
	info, err := snapshot.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	var off int64 = -1
	for _, sec := range info.Sections {
		if sec.Tag == "NCOL" {
			off = int64(sec.Offset + sec.Length - 1)
		}
	}
	if off < 0 {
		t.Fatal("no NCOL section")
	}
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := file.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteAt([]byte{b[0] ^ 0x5a}, off); err != nil {
		t.Fatal(err)
	}
	file.Close()

	ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	as, err := base(ls.Graph, "A", "A")
	if err != nil {
		t.Fatal(err)
	}
	ids := as.cols[0]
	for _, src := range []string{"s = 'name 3'", "k > 3 AND s like '%1%'", "k < 0 OR s is null"} {
		pred, err := compileCond(as, "A", expr.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		_, err = SelectSet(context.Background(), ls.Graph, ids, pred)
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *snapshot.CorruptError", src, err)
		}
		if st, _ := ls.PagerStats(); st.Pinned != 0 {
			t.Fatalf("%s: %d columns left pinned", src, st.Pinned)
		}
	}
	pred, err := compileCond(as, "A", expr.MustParse("k >= 100"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectSet(context.Background(), ls.Graph, ids, pred)
	if err != nil {
		t.Fatalf("intact column: %v", err)
	}
	if got.Len() != rows-100 {
		t.Fatalf("k >= 100 kept %d nodes, want %d", got.Len(), rows-100)
	}
	if st, _ := ls.PagerStats(); st.Pinned != 0 {
		t.Fatalf("%d columns left pinned after a selection", st.Pinned)
	}
}

// selectSink keeps BenchmarkSelect's result live.
// TestSelectSetAllocs: SelectSet reuses one selection vector across its
// morsels, and the bound condition its OR merge buffers and interpreted
// row environment, so a selection over 8 morsels allocates no more
// objects than one over a single morsel.
func TestSelectSetAllocs(t *testing.T) {
	const rows = 8 * MorselRows
	sg := tgm.NewSchemaGraph()
	nt, err := sg.AddNodeType(tgm.NodeType{Name: "A", Label: "id", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(sg)
	for i := 0; i < rows; i++ {
		if _, err := g.AddNode("A", []value.V{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	pred, err := expr.Compile(expr.MustParse("id % 3 = 0 OR id >= 5 AND id NOT IN (7, 8)"), nt)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.NodesOfType("A")
	allocs := func(ids []tgm.NodeID) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SelectSet(context.Background(), g, ids, pred); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(ids[:MorselRows]), allocs(ids); eight > one {
		t.Fatalf("SelectSet allocates %v objects over 8 morsels, %v over one: a morsel allocates", eight, one)
	}
}

var selectSink *Relation

// BenchmarkSelect times the serial Select of one condition over a
// generated 38,000-row type, the size of the benchmark corpus's Papers:
// page_start is an INT in 1..1400, title a distinct STRING and name a
// two-word STRING drawn from syllables. It reports ns/row alongside the
// allocations.
func BenchmarkSelect(b *testing.B) {
	const rows = 38000
	sg := tgm.NewSchemaGraph()
	nt, err := sg.AddNodeType(tgm.NodeType{Name: "Papers", Label: "title", Attrs: []tgm.Attr{
		{Name: "page_start", Type: value.KindInt}, {Name: "title", Type: value.KindString}, {Name: "name", Type: value.KindString}}})
	if err != nil {
		b.Fatal(err)
	}
	g := tgm.NewInstanceGraph(sg)
	syll := []string{"an", "ber", "chi", "do", "el", "fu", "ga", "han", "ito", "jun", "ka", "li", "mo", "na", "ra", "son"}
	word := func(i int) string { return syll[i%len(syll)] + syll[(i/len(syll))%len(syll)] + syll[(i/7)%len(syll)] }
	for i := 0; i < rows; i++ {
		if _, err := g.AddNode("Papers", []value.V{
			value.Int(int64(1 + (i*7919)%1400)),
			value.Str(fmt.Sprintf("paper %d on %s", i, word(i*31))),
			value.Str(word(i) + " " + word(i*13+5)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	g.Freeze()
	r, err := base(g, "Papers", "Papers")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, cond string }{
		{"int_ge_float", "page_start >= 289.000123"},
		{"string_eq", "title = 'paper 1234 on " + word(1234*31) + "'"},
		{"like_contains", "name like '%an%'"},
		{"compound", "page_start >= 289.000123 AND name like '%an%' OR NOT (title <> 'paper 7 on " + word(7*31) + "')"},
	} {
		pred, err := expr.Compile(expr.MustParse(bc.cond), nt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if selectSink, err = Select(r, "Papers", pred); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
