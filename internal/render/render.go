// Package render formats enriched tables, query patterns, schema
// graphs, and translation summaries as text for the CLI tools and
// examples.
// Entity-reference cells render the way the paper's Figure 1 shows them:
// a count followed by truncated labels ("H. V. Jaga…, Adriane Ch…").
package render

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/etable"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// Options controls table rendering.
type Options struct {
	// MaxRows caps the rows printed (0 = all).
	MaxRows int
	// MaxRefs caps the entity references shown per cell (default 5,
	// like Figure 1).
	MaxRefs int
	// MaxLabel caps each reference label's length before truncation with
	// "…" (default 10, like Figure 1).
	MaxLabel int
	// MaxCell caps base-attribute cell width (default 30).
	MaxCell int
}

func (o *Options) fill() {
	if o.MaxRefs == 0 {
		o.MaxRefs = 5
	}
	if o.MaxLabel == 0 {
		o.MaxLabel = 10
	}
	if o.MaxCell == 0 {
		o.MaxCell = 30
	}
}

// Truncate shortens s to max runes, appending "…" when cut.
func Truncate(s string, max int) string {
	if max <= 0 || utf8.RuneCountInString(s) <= max {
		return s
	}
	runes := []rune(s)
	return string(runes[:max]) + "…"
}

// RefCell renders one entity-reference cell: "3· Alice, Bob, Carol"
// with labels truncated, or "-" when empty.
func RefCell(c *etable.Cell, o Options) string {
	o.fill()
	if len(c.Refs) == 0 {
		return "-"
	}
	var parts []string
	for i, r := range c.Refs {
		if i >= o.MaxRefs {
			break
		}
		parts = append(parts, Truncate(r.Label, o.MaxLabel))
	}
	suffix := ""
	if len(c.Refs) > o.MaxRefs {
		suffix = ", …"
	}
	return fmt.Sprintf("%d· %s%s", len(c.Refs), strings.Join(parts, ", "), suffix)
}

// Result writes an enriched table as aligned text columns.
func Result(w io.Writer, res *etable.Result, o Options) {
	o.fill()
	headers := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		h := c.Name
		if c.Kind != etable.ColBase {
			h = "[" + h + "]"
		}
		headers[i] = h
	}
	rows := res.Rows
	truncated := 0
	if o.MaxRows > 0 && len(rows) > o.MaxRows {
		truncated = len(rows) - o.MaxRows
		rows = rows[:o.MaxRows]
	}
	cells := make([][]string, len(rows))
	for ri, row := range rows {
		line := make([]string, len(res.Columns))
		for ci := range res.Columns {
			cell := &row.Cells[ci]
			if res.Columns[ci].Kind == etable.ColBase {
				line[ci] = Truncate(cell.Value.Format(), o.MaxCell)
			} else {
				line[ci] = RefCell(cell, o)
			}
		}
		cells[ri] = line
	}
	writeAligned(w, headers, cells)
	if truncated > 0 {
		fmt.Fprintf(w, "… (%d more rows)\n", truncated)
	}
}

func writeAligned(w io.Writer, headers []string, cells [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range cells {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprint(w, c)
			if pad := widths[i] - utf8.RuneCountInString(c); pad > 0 && i < len(row)-1 {
				fmt.Fprint(w, strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
}

// Pattern writes a query pattern in Figure 6's diagram spirit: one line
// per node (primary starred, with conditions) and one per edge.
func Pattern(w io.Writer, p *etable.Pattern) {
	for _, n := range p.Nodes {
		marker := " "
		if n.Key == p.Primary {
			marker = "*"
		}
		cond := ""
		if n.CondSrc != "" {
			cond = "  [" + n.CondSrc + "]"
		}
		fmt.Fprintf(w, "%s %s (%s)%s\n", marker, n.Key, n.Type, cond)
	}
	for _, e := range p.Edges {
		fmt.Fprintf(w, "  %s --%s--> %s\n", e.From, e.EdgeType, e.To)
	}
}

// SchemaGraph writes the TGDB schema graph as text (Figure 4).
func SchemaGraph(w io.Writer, g *tgm.SchemaGraph) {
	fmt.Fprintln(w, "Node types:")
	for _, nt := range g.NodeTypes() {
		attrs := make([]string, len(nt.Attrs))
		for i, a := range nt.Attrs {
			attrs[i] = a.Name
		}
		fmt.Fprintf(w, "  %-34s %-38s label=%s\n",
			nt.Name, "("+strings.Join(attrs, ", ")+")", nt.Label)
	}
	fmt.Fprintln(w, "Edge types:")
	for _, et := range g.EdgeTypes() {
		fmt.Fprintf(w, "  %-44s %s → %s  [%s]\n", et.Name, et.Source, et.Target, et.Kind)
	}
}

// Table1 writes the translation classification in the layout of the
// paper's Table 1: node and edge type categories with their sources and
// determining factors.
func Table1(w io.Writer, tr *translate.Result) {
	fmt.Fprintln(w, "Form       Source                                     Determining factor")
	fmt.Fprintln(w, "---------  -----------------------------------------  ------------------")
	for _, nt := range tr.Schema.NodeTypes() {
		fmt.Fprintf(w, "Node type  %-42s %s\n", nt.Name, nt.Kind)
	}
	seen := map[string]bool{}
	for _, et := range tr.Schema.EdgeTypes() {
		// Show each bidirectional pair once (skip reverse halves).
		if seen[et.Reverse] {
			continue
		}
		seen[et.Name] = true
		fmt.Fprintf(w, "Edge type  %-42s %s\n",
			fmt.Sprintf("%s → %s", et.Source, et.Target), et.Kind)
	}
	fmt.Fprintln(w, "\nRelation classification:")
	for _, c := range tr.Relations {
		fmt.Fprintf(w, "  %-20s %-32s (%s)\n", c.Table, c.Class, c.DeterminingFactor)
	}
}

// History writes session history entries with the current cursor marked.
func History(w io.Writer, entries []string, cursor int) {
	for i, e := range entries {
		marker := "  "
		if i == cursor {
			marker = "> "
		}
		fmt.Fprintf(w, "%s%2d. %s\n", marker, i+1, e)
	}
}
