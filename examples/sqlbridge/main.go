// Sqlbridge demonstrates the paper's §8 expressiveness argument: typical
// SQL join queries over the original relational schema are translated
// into equivalent ETable query patterns, executed on the typed graph
// model, and rendered as enriched tables — the duplication-free
// presentation the paper contrasts with flat join output.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/render"
	"repro/internal/sqlbridge"
	"repro/internal/sqlexec"
	"repro/internal/translate"
)

func main() {
	log.SetFlags(0)
	db, err := dataset.Generate(dataset.Config{Papers: 3000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		log.Fatal(err)
	}
	bridge := sqlbridge.New(tr)

	queries := []string{
		`SELECT Papers.title FROM Papers, Conferences
		 WHERE Papers.conference_id = Conferences.id
		 AND Conferences.acronym = 'SIGMOD' AND Papers.year > 2010
		 GROUP BY Papers.id`,

		`SELECT Authors.name
		 FROM Conferences, Papers, Paper_Authors, Authors, Institutions
		 WHERE Papers.conference_id = Conferences.id
		 AND Papers.id = Paper_Authors.paper_id
		 AND Paper_Authors.author_id = Authors.id
		 AND Authors.institution_id = Institutions.id
		 AND Conferences.acronym = 'SIGMOD'
		 AND Papers.year > 2005
		 AND Institutions.country LIKE '%Korea%'
		 GROUP BY Authors.id`,

		`SELECT Papers.title FROM Papers, Paper_Keywords
		 WHERE Papers.id = Paper_Keywords.paper_id
		 AND Paper_Keywords.keyword LIKE '%user%'
		 GROUP BY Papers.id`,
	}

	for i, q := range queries {
		fmt.Printf("== Query %d =============================================\n%s\n\n", i+1, q)

		// The SQL result: one row per group of the entity's key, and
		// only the columns the SELECT list names.
		rel, err := sqlexec.ExecSQL(db, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SQL executed directly: %d result rows\n", len(rel.Rows))

		// Translated into an ETable pattern (§8's three steps).
		p, err := bridge.Translate(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nTranslated query pattern:")
		render.Pattern(os.Stdout, p)
		fmt.Println("\nGeneral SQL form (with ent-list):")
		fmt.Println("  " + sqlbridge.ToGeneralSQL(p))

		res, err := etable.Execute(tr.Instance, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nETable result: %d rows (one per entity, no duplication)\n\n", res.NumRows())
		render.Result(os.Stdout, res, render.Options{MaxRows: 5})
		fmt.Println()
	}
}
