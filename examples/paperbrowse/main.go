// Paperbrowse reproduces the paper's Figure 1 and Figure 2 over the
// full-scale synthetic corpus: the enriched table of SIGMOD papers with
// a %user% keyword, then the three ways of exploring author information
// (clicking a name, clicking a count, pivoting the column), and finally
// the history-driven exploration of Figure 1's left panel.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/translate"
)

func main() {
	log.SetFlags(0)
	fmt.Fprintln(os.Stderr, "generating corpus (8000 papers)…")
	db, err := dataset.Generate(dataset.Config{Papers: 8000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		log.Fatal(err)
	}
	s := session.New(tr.Schema, tr.Instance)

	// Figure 1: Papers filtered by keyword like '%user%' AND conference
	// = SIGMOD, with entity-reference columns for authors, citations,
	// and keywords.
	must(s.Open("Papers"))
	must(s.FilterByNeighbor("Paper_Keywords: keyword", "keyword like '%user%'"))
	must(s.FilterByNeighbor("Conferences", "acronym = 'SIGMOD'"))
	must(s.SortBy(etable.SortSpec{Column: "Papers (referencing)", Desc: true}))
	res, err := s.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 1 — SIGMOD papers with a %%user%% keyword (%d rows):\n\n", res.NumRows())
	render.Result(os.Stdout, res, render.Options{MaxRows: 8})

	if res.NumRows() == 0 {
		log.Fatal("no matching papers; corpus generation broken")
	}
	paper := res.Rows[0]
	ai := res.ColumnIndex("Authors")
	if ai < 0 || paper.Cells[ai].Count() == 0 {
		log.Fatal("no author references on first row")
	}
	firstAuthor := paper.Cells[ai].Refs[0]

	// Figure 2 (a): click an author's name → a one-row Authors table.
	must(s.Single(firstAuthor.ID))
	resA, _ := s.Result()
	fmt.Printf("\nFigure 2(a) — clicked %q:\n\n", firstAuthor.Label)
	render.Result(os.Stdout, resA, render.Options{})

	// Figure 2 (b): click the paper's author count → all its authors.
	must(s.Open("Papers"))
	must(s.FilterByNeighbor("Paper_Keywords: keyword", "keyword like '%user%'"))
	must(s.FilterByNeighbor("Conferences", "acronym = 'SIGMOD'"))
	must(s.Seeall(paper.Node, "Authors"))
	resB, _ := s.Result()
	fmt.Printf("\nFigure 2(b) — all %d authors of %q:\n\n",
		resB.NumRows(), render.Truncate(paper.Label, 40))
	render.Result(os.Stdout, resB, render.Options{MaxRows: 8})

	// Figure 2 (c): pivot the Authors column → authors of ALL matching
	// papers, ranked by how many of those papers they wrote.
	must(s.Open("Papers"))
	must(s.FilterByNeighbor("Paper_Keywords: keyword", "keyword like '%user%'"))
	must(s.FilterByNeighbor("Conferences", "acronym = 'SIGMOD'"))
	must(s.Pivot("Authors"))
	must(s.SortBy(etable.SortSpec{Column: "Papers", Desc: true}))
	resC, _ := s.Result()
	fmt.Printf("\nFigure 2(c) — authors pivoted and ranked by paper count (%d rows):\n\n", resC.NumRows())
	render.Result(os.Stdout, resC, render.Options{MaxRows: 8})

	// The history view.
	fmt.Println("\nHistory:")
	entries, cur := s.Entries()
	var acts []string
	for _, e := range entries {
		acts = append(acts, e.Action)
	}
	render.History(os.Stdout, acts, cur)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
