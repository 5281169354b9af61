package expr

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func env(pairs ...any) MapEnv {
	m := MapEnv{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(value.V)
	}
	return m
}

func evalBool(t *testing.T, src string, e Env) bool {
	t.Helper()
	ex, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	ok, err := Truthy(ex, e)
	if err != nil {
		t.Fatalf("Truthy(%q): %v", src, err)
	}
	return ok
}

func TestComparisons(t *testing.T) {
	e := env("year", value.Int(2007), "title", value.Str("Making database systems usable"))
	cases := []struct {
		src  string
		want bool
	}{
		{"year = 2007", true},
		{"year <> 2007", false},
		{"year != 2008", true},
		{"year > 2005", true},
		{"year >= 2007", true},
		{"year < 2007", false},
		{"year <= 2006", false},
		{"title = 'Making database systems usable'", true},
		{"title < 'Z'", true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"user interface", "%user%", true},
		{"USER interface", "%user%", false},
		{"Seoul National Univ.", "%Korea%", false},
		{"South Korea", "%Korea%", true},
		{"Korea", "Korea", true},
		{"Koreas", "Korea", false},
		{"abc", "a_c", true},
		{"abbc", "a_c", false},
		{"", "%", true},
		{"", "_", false},
		{"anything", "%", true},
		{"a%b", "a\\%b", true},
		{"axb", "a\\%b", false},
		{"mississippi", "%iss%ippi", true},
		{"hello world", "hello%world", true},
		{"hello", "%%%", true},
		{"ab", "a%b%c", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p, false); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if !MatchLike("SIGMOD", "%sigmod%", true) {
		t.Error("ILIKE should fold case")
	}
}

func TestLikeExpr(t *testing.T) {
	e := env("country", value.Str("South Korea"), "kw", value.Str("user interface"))
	if !evalBool(t, "country like '%Korea%'", e) {
		t.Error("country like %Korea% should hold")
	}
	if evalBool(t, "country not like '%Korea%'", e) {
		t.Error("NOT LIKE should invert")
	}
	if !evalBool(t, "kw ilike '%USER%'", e) {
		t.Error("ILIKE should fold case")
	}
}

func TestInBetweenIsNull(t *testing.T) {
	e := env("year", value.Int(2010), "x", value.Null)
	if !evalBool(t, "year in (2009, 2010, 2011)", e) {
		t.Error("IN should match")
	}
	if evalBool(t, "year not in (2009, 2010)", e) {
		t.Error("NOT IN should miss")
	}
	if !evalBool(t, "year between 2005 and 2015", e) {
		t.Error("BETWEEN should match")
	}
	if evalBool(t, "year not between 2005 and 2015", e) {
		t.Error("NOT BETWEEN should miss")
	}
	if !evalBool(t, "x is null", e) {
		t.Error("IS NULL")
	}
	if evalBool(t, "x is not null", e) {
		t.Error("IS NOT NULL")
	}
	if !evalBool(t, "year is not null", e) {
		t.Error("year IS NOT NULL")
	}
}

// TestInNullSemantics pins SQL's IN over a list holding a NULL: a match
// is TRUE, no match is NULL (UNKNOWN) rather than FALSE, so NOT IN and
// NOT (… IN …) never hold there; a NULL left side is NULL either way.
func TestInNullSemantics(t *testing.T) {
	e := env("year", value.Int(2007), "x", value.Null)
	cases := []struct {
		src  string
		want value.V
	}{
		{"year in (1999, null)", value.Null},
		{"year not in (1999, null)", value.Null},
		{"NOT (year in (1999, null))", value.Null},
		{"year in (2007, null)", value.Bool(true)},
		{"year not in (2007, null)", value.Bool(false)},
		{"year in (null)", value.Null},
		{"year in (1999, 2007.0)", value.Bool(true)},
		{"year not in (1999)", value.Bool(true)},
		{"x in (1, null)", value.Null},
		{"x not in (1)", value.Null},
	}
	for _, c := range cases {
		got, err := MustParse(c.src).Eval(e)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got.IsNull() != c.want.IsNull() || !c.want.IsNull() && got.AsBool() != c.want.AsBool() {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestLikeRunes pins '_' to one character, not one byte, and '%' to
// whole characters, over multi-byte UTF-8; escaped '\_' and '\%'
// stay literal.
func TestLikeRunes(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"é", "_", true},
		{"é", "__", false},
		{"aé", "a_", true},
		{"éa", "_a", true},
		{"日本語", "___", true},
		{"日本語", "__", false},
		{"日本語", "%_", true},
		{"日本語", "_%_", true},
		{"日本語", "%本_", true},
		{"日本語", "%_本", false},
		{"Zürich", "Z_rich", true},
		{"Zürich", "%_rich", true},
		{"Zürich", "%ü%", true},
		{"é_", "_\\_", true},
		{"éx", "_\\_", false},
		{"é%", "_\\%", true},
		{"éé", "_\\%", false},
		{"", "%_", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p, false); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if !MatchLike("ÉCOLE", "_cole", true) {
		t.Error("ILIKE over a multi-byte first character")
	}
}

func TestBooleanConnectives(t *testing.T) {
	e := env("a", value.Int(1), "b", value.Int(0))
	cases := []struct {
		src  string
		want bool
	}{
		{"a = 1 AND b = 0", true},
		{"a = 1 AND b = 1", false},
		{"a = 0 OR b = 0", true},
		{"a = 0 OR b = 1", false},
		{"NOT a = 0", true},
		{"NOT (a = 1 AND b = 0)", false},
		{"a = 1 OR a = 0 AND b = 1", true}, // AND binds tighter
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := env("x", value.Null, "a", value.Int(1))
	// NULL comparisons are never truthy.
	if evalBool(t, "x = 0", e) || evalBool(t, "x <> 0", e) {
		t.Error("NULL comparisons should not be truthy")
	}
	// FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
	if evalBool(t, "a = 0 AND x = 0", e) {
		t.Error("FALSE AND NULL should be false")
	}
	if !evalBool(t, "a = 1 OR x = 0", e) {
		t.Error("TRUE OR NULL should be true")
	}
	// NOT NULL is NULL (not truthy).
	if evalBool(t, "NOT x = 0", e) {
		t.Error("NOT NULL should not be truthy")
	}
}

func TestArithmetic(t *testing.T) {
	e := env("ps", value.Int(13), "pe", value.Int(24), "f", value.Float(1.5))
	cases := []struct {
		src  string
		want value.V
	}{
		{"pe - ps", value.Int(11)},
		{"ps + pe", value.Int(37)},
		{"2 * 3 + 1", value.Int(7)},
		{"1 + 2 * 3", value.Int(7)},
		{"7 / 2", value.Int(3)},
		{"7 % 2", value.Int(1)},
		{"f * 2", value.Float(3)},
		{"-ps", value.Int(-13)},
		{"7 / 0", value.Null},
		{"(1 + 2) * 3", value.Int(9)},
	}
	for _, c := range cases {
		ex, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := ex.Eval(e)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got.IsNull() != c.want.IsNull() || !c.want.IsNull() && !value.Equal(got, c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"year >",
		"year = 'unterminated",
		"(year = 1",
		"year in 2009",
		"year between 1 or 2",
		"= 5",
		"year = 2005 extra stuff",
		"a like",
		"x is 5",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestUnknownColumn(t *testing.T) {
	ex := MustParse("nope = 1")
	if _, err := ex.Eval(MapEnv{}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestQualifiedLookup(t *testing.T) {
	e := env("year", value.Int(2007))
	if !evalBool(t, "Papers.year = 2007", e) {
		t.Error("qualified name should fall back to unqualified column")
	}
}

func TestColumns(t *testing.T) {
	ex := MustParse("a = 1 AND b LIKE '%x%' OR c + d > 2")
	got := ex.Columns(nil)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	if len(got) != 4 {
		t.Fatalf("Columns = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
	}
}

// mapColsCond builds a condition holding every node kind, with a
// column from col in each operand slot a column can take.
func mapColsCond(col func(string) Expr) Expr {
	one := Const{Val: value.Int(1)}
	return And{
		Left: Or{
			Left:  Not{Inner: Cmp{Op: OpLt, Left: col("a"), Right: col("b")}},
			Right: Like{Left: col("c"), Pattern: col("d"), CaseFold: true, Negate: true},
		},
		Right: And{
			Left: In{Left: col("e"), List: []Expr{one, col("f")}, Negate: true},
			Right: Or{
				Left: Between{Left: col("g"), Low: col("h"), High: col("i"), Negate: true},
				Right: And{
					Left:  IsNull{Left: col("j"), Negate: true},
					Right: Cmp{Op: OpGe, Left: Arith{Op: OpMul, Left: col("k"), Right: one}, Right: col("l")},
				},
			},
		},
	}
}

func TestMapCols(t *testing.T) {
	plain := func(n string) Expr { return Col{Name: n} }
	e := mapColsCond(plain)
	if got := MapCols(e, func(c Col) Expr { return c }); got.String() != e.String() {
		t.Errorf("identity map: %s, want %s", got, e)
	}
	renamed := MapCols(e, func(c Col) Expr { return Col{Name: "t." + c.Name} })
	want := mapColsCond(func(n string) Expr { return plain("t." + n) })
	if !reflect.DeepEqual(renamed, want) {
		t.Errorf("renaming map:\n got %s\nwant %s", renamed, want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"acronym = 'SIGMOD' AND year > 2005",
		"country LIKE '%Korea%'",
		"x IN (1, 2, 3)",
		"y BETWEEN 1 AND 2",
		"z IS NOT NULL",
		"NOT (a = 1 OR b = 2)",
	}
	for _, src := range srcs {
		ex := MustParse(src)
		re, err := Parse(ex.String())
		if err != nil {
			t.Fatalf("re-Parse(%q → %q): %v", src, ex.String(), err)
		}
		if re.String() != ex.String() {
			t.Errorf("String round-trip unstable: %q → %q → %q", src, ex.String(), re.String())
		}
	}
}

// Property: LIKE with pattern "%s%" finds s as substring.
func TestLikeSubstringProperty(t *testing.T) {
	f := func(hay, needle string) bool {
		if strings.ContainsAny(needle, `%_\`) || strings.ContainsAny(hay, `%_\`) {
			return true
		}
		return MatchLike(hay, "%"+needle+"%", false) == strings.Contains(hay, needle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a literal pattern (no metacharacters) matches only itself.
func TestLikeLiteralProperty(t *testing.T) {
	f := func(a, b string) bool {
		if strings.ContainsAny(a, `%_\`) || strings.ContainsAny(b, `%_\`) {
			return true
		}
		return MatchLike(a, b, false) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: parsed integer comparisons agree with direct Go comparison.
func TestCmpProperty(t *testing.T) {
	f := func(a, b int32) bool {
		e := env("a", value.Int(int64(a)), "b", value.Int(int64(b)))
		return evalBoolQuiet("a < b", e) == (a < b) &&
			evalBoolQuiet("a = b", e) == (a == b) &&
			evalBoolQuiet("a >= b", e) == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func evalBoolQuiet(src string, e Env) bool {
	ex, err := Parse(src)
	if err != nil {
		return false
	}
	ok, err := Truthy(ex, e)
	return err == nil && ok
}
