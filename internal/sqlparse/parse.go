package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/relational"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	p := &parser{lex: expr.NewLexer(src)}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if err := p.lex.Err(); err != nil {
		return nil, err
	}
	if t := p.lex.Tok(); t.Kind != expr.TokEOF {
		return nil, fmt.Errorf("sqlparse: unexpected trailing input %q", t.Text)
	}
	return stmt, nil
}

// MustParse is Parse that panics on error, for tests.
func MustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	lex *expr.Lexer
	// havingAggs collects aggregate calls seen while parsing a HAVING
	// clause (see SelectStmt.HavingAggs).
	havingAggs []AggCall
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near offset %d)", fmt.Sprintf(format, args...), p.lex.Tok().Pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.lex.Tok().IsKeyword(kw) {
		p.lex.Next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.lex.Tok().Text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.lex.Tok()
	if t.Kind == expr.TokOp && t.Text == op {
		p.lex.Next()
		return true
	}
	return false
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.acceptOp(",") {
			break
		}
	}

	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := expr.ParseWith(p.lex)
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: ref, On: on})
	}

	if p.acceptKeyword("WHERE") {
		w, err := expr.ParseWith(p.lex)
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := expr.ParseWith(p.lex)
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("HAVING") {
		p.havingAggs = nil
		h, err := p.parseAggExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
		stmt.HavingAggs = p.havingAggs
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var item OrderItem
			if agg, ok, err := p.tryParseAggCall(); err != nil {
				return nil, err
			} else if ok {
				item.Agg = agg
			} else {
				e, err := expr.ParseWith(p.lex)
				if err != nil {
					return nil, err
				}
				item.Expr = e
			}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *parser) parseInt() (int, error) {
	t := p.lex.Tok()
	if t.Kind != expr.TokNumber {
		return 0, p.errf("expected integer, found %q", t.Text)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	p.lex.Next()
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.lex.Tok()
	if t.Kind == expr.TokOp && t.Text == "*" {
		p.lex.Next()
		return SelectItem{Star: true}, nil
	}
	if t.Kind == expr.TokIdent && strings.HasSuffix(t.Text, ".*") {
		p.lex.Next()
		return SelectItem{Star: true, StarTable: strings.TrimSuffix(t.Text, ".*")}, nil
	}
	// "t . *" arrives as ident "t." followed by op "*" because the lexer
	// folds dots into identifiers; handle the trailing-dot form too.
	if t.Kind == expr.TokIdent && strings.HasSuffix(t.Text, ".") {
		base := strings.TrimSuffix(t.Text, ".")
		p.lex.Next()
		if p.acceptOp("*") {
			return SelectItem{Star: true, StarTable: base}, nil
		}
		return SelectItem{}, p.errf("expected * after %q", t.Text)
	}

	var item SelectItem
	if agg, ok, err := p.tryParseAggCall(); err != nil {
		return SelectItem{}, err
	} else if ok {
		item.Agg = agg
	} else {
		e, err := expr.ParseWith(p.lex)
		if err != nil {
			return SelectItem{}, err
		}
		item.Expr = e
	}
	if p.acceptKeyword("AS") {
		a := p.lex.Tok()
		if a.Kind != expr.TokIdent {
			return SelectItem{}, p.errf("expected alias after AS")
		}
		item.Alias = a.Text
		p.lex.Next()
	} else if a := p.lex.Tok(); a.Kind == expr.TokIdent && !isClauseKeyword(a.Text) {
		item.Alias = a.Text
		p.lex.Next()
	}
	return item, nil
}

func isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
		"JOIN", "INNER", "ON", "AS", "BY", "ASC", "DESC", "AND", "OR", "NOT",
		"LIKE", "ILIKE", "IN", "BETWEEN", "IS", "NULL", "DISTINCT", "SELECT":
		return true
	default:
		return false
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.lex.Tok()
	if t.Kind != expr.TokIdent {
		return TableRef{}, p.errf("expected table name, found %q", t.Text)
	}
	ref := TableRef{Name: t.Text}
	p.lex.Next()
	if p.acceptKeyword("AS") {
		a := p.lex.Tok()
		if a.Kind != expr.TokIdent {
			return TableRef{}, p.errf("expected alias after AS")
		}
		ref.Alias = a.Text
		p.lex.Next()
	} else if a := p.lex.Tok(); a.Kind == expr.TokIdent && !isClauseKeyword(a.Text) {
		ref.Alias = a.Text
		p.lex.Next()
	}
	return ref, nil
}

// aggFuncByName maps a function identifier to its aggregate.
func aggFuncByName(name string) (relational.AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return relational.AggCount, true
	case "SUM":
		return relational.AggSum, true
	case "AVG":
		return relational.AggAvg, true
	case "MIN":
		return relational.AggMin, true
	case "MAX":
		return relational.AggMax, true
	default:
		return 0, false
	}
}

// tryParseAggCall parses an aggregate call if the current token begins
// one; it reports ok=false without consuming input otherwise.
func (p *parser) tryParseAggCall() (*AggCall, bool, error) {
	t := p.lex.Tok()
	if t.Kind != expr.TokIdent {
		return nil, false, nil
	}
	fn, isAgg := aggFuncByName(t.Text)
	if !isAgg {
		return nil, false, nil
	}
	// Peek: an aggregate name must be immediately followed by '('.
	// The lexer has one-token lookahead only, so clone-by-position is not
	// available; instead we advance and verify.
	save := *p.lex
	p.lex.Next()
	if !p.acceptOp("(") {
		*p.lex = save
		return nil, false, nil
	}
	call := &AggCall{Func: fn}
	if p.acceptOp("*") {
		if fn != relational.AggCount {
			return nil, false, p.errf("* argument is only valid in COUNT")
		}
	} else {
		if p.acceptKeyword("DISTINCT") {
			if fn != relational.AggCount {
				return nil, false, p.errf("DISTINCT is only supported in COUNT")
			}
			call.Func = relational.AggCountDistinct
		}
		arg, err := expr.ParseWith(p.lex)
		if err != nil {
			return nil, false, err
		}
		call.Arg = arg
	}
	if !p.acceptOp(")") {
		return nil, false, p.errf("expected ) to close %s", fn)
	}
	return call, true, nil
}

// parseAggExpr parses an expression that may contain aggregate calls
// (HAVING clauses). Aggregate calls are rewritten to column references
// using their canonical names, which the executor materializes.
func (p *parser) parseAggExpr() (expr.Expr, error) {
	return p.parseAggOr()
}

func (p *parser) parseAggOr() (expr.Expr, error) {
	left, err := p.parseAggAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAggAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAggAnd() (expr.Expr, error) {
	left, err := p.parseAggCmp()
	if err != nil {
		return nil, err
	}
	for p.lex.Tok().IsKeyword("AND") {
		p.lex.Next()
		right, err := p.parseAggCmp()
		if err != nil {
			return nil, err
		}
		left = expr.And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAggCmp() (expr.Expr, error) {
	left, err := p.parseAggOperand()
	if err != nil {
		return nil, err
	}
	t := p.lex.Tok()
	if t.Kind != expr.TokOp {
		return left, nil
	}
	var op expr.CmpOp
	switch t.Text {
	case "=":
		op = expr.OpEq
	case "<>", "!=":
		op = expr.OpNe
	case "<":
		op = expr.OpLt
	case "<=":
		op = expr.OpLe
	case ">":
		op = expr.OpGt
	case ">=":
		op = expr.OpGe
	default:
		return left, nil
	}
	p.lex.Next()
	right, err := p.parseAggOperand()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAggOperand() (expr.Expr, error) {
	if agg, ok, err := p.tryParseAggCall(); err != nil {
		return nil, err
	} else if ok {
		p.havingAggs = append(p.havingAggs, *agg)
		return expr.Col{Name: agg.Name()}, nil
	}
	if p.acceptOp("(") {
		e, err := p.parseAggOr()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp(")") {
			return nil, p.errf("expected )")
		}
		return e, nil
	}
	return expr.ParseOperandWith(p.lex)
}
