// Command etable-study runs the simulated user study over the synthetic
// academic corpus and regenerates the paper's evaluation artifacts:
// Table 2 (tasks, with answers computed in both conditions), Figure 10
// (per-task completion times, CIs, paired t-tests), Table 3 (modelled
// subjective ratings), and the §7.2 preference comparison. Packages klm
// and study document the human-participant substitution.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/study"
	"repro/internal/translate"
)

func main() {
	log.SetFlags(0)
	papers := flag.Int("papers", 38000, "papers in the generated corpus (paper scale: 38000)")
	participants := flag.Int("participants", 12, "simulated participants")
	seed := flag.Int64("seed", 42, "simulation seed")
	altSet := flag.Bool("set-b", false, "use the second matched task set (§7.1)")
	show := flag.String("show", "all", "what to print: tasks, figure10, ratings, preferences, all")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating %d-paper corpus…\n", *papers)
	db, err := dataset.Generate(dataset.Config{Papers: *papers, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "translating to TGDB…")
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "running simulated study…")
	rep, err := study.RunStudy(tr, db, study.Config{
		Participants: *participants, Seed: *seed, AltTaskSet: *altSet,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	switch *show {
	case "tasks":
		study.WriteTable2(w, rep)
	case "figure10":
		study.WriteFigure10(w, rep)
	case "ratings":
		study.WriteTable3(w, rep)
	case "preferences":
		study.WritePreferences(w, rep)
	case "all":
		study.WriteReport(w, rep)
	default:
		log.Fatalf("unknown -show value %q", *show)
	}
}
