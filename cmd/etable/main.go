// Command etable is an interactive terminal client for browsing the
// academic database through the ETable model: the user-level actions of
// §6.1 (open, filter, pivot, single, seeall, sort, hide/show, history,
// revert) plus the §8 SQL bridge (translate a join query into a pattern
// and run it).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/sqlbridge"
	"repro/internal/tgm"
	"repro/internal/translate"
)

const help = `commands:
  tables                      list node types (the default table list)
  open <type>                 open a table           (Initiate)
  filter <condition>          filter primary rows    (Select)
  nfilter <column> <cond>     filter via a neighbor column
  pivot <column>              pivot on a column      (Add / Shift)
  single <node-id>            show one entity        (Initiate+Select)
  seeall <node-id> <column>   expand one cell        (Select+Add/Shift)
  sort <column|attr> [asc]    sort rows (reference columns sort by count)
  hide <column> / show <column>
  history                     list past actions
  revert <n>                  return to history entry n
  sql <SELECT …>              translate a join query (§8) and run it
  pattern                     print the current query pattern
  rows <n>                    set the display row limit
  help / quit`

func main() {
	log.SetFlags(0)
	papers := flag.Int("papers", 2000, "papers in the generated corpus")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating %d-paper corpus…\n", *papers)
	db, err := dataset.Generate(dataset.Config{Papers: *papers, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		log.Fatal(err)
	}
	sess := session.New(tr.Schema, tr.Instance)
	bridge := sqlbridge.New(tr)

	fmt.Println("ETable interactive browser — type 'help' for commands")
	maxRows := 15
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("etable> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var err error
		show := true
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			fmt.Println(help)
			show = false
		case "tables":
			for _, nt := range sess.EntityTypes() {
				fmt.Printf("  %-36s %6d rows  (%s)\n",
					nt.Name, len(tr.Instance.NodesOfType(nt.Name)), nt.Kind)
			}
			show = false
		case "open":
			err = sess.Open(rest)
		case "filter":
			err = sess.Filter(rest)
		case "nfilter":
			col, cond, ok := strings.Cut(rest, " ")
			if !ok {
				err = fmt.Errorf("usage: nfilter <column> <condition>")
			} else {
				err = sess.FilterByNeighbor(col, strings.TrimSpace(cond))
			}
		case "pivot":
			err = sess.Pivot(rest)
		case "single":
			var id int
			if id, err = strconv.Atoi(rest); err == nil {
				err = sess.Single(tgm.NodeID(id))
			}
		case "seeall":
			idStr, col, ok := strings.Cut(rest, " ")
			if !ok {
				err = fmt.Errorf("usage: seeall <node-id> <column>")
				break
			}
			var id int
			if id, err = strconv.Atoi(idStr); err == nil {
				err = sess.Seeall(tgm.NodeID(id), strings.TrimSpace(col))
			}
		case "sort":
			key := rest
			desc := true
			if strings.HasSuffix(key, " asc") {
				key, desc = strings.TrimSuffix(key, " asc"), false
			}
			spec := etable.SortSpec{Column: key, Desc: desc}
			if err = sess.SortBy(spec); err != nil {
				spec = etable.SortSpec{Attr: key, Desc: desc}
				err = sess.SortBy(spec)
			}
		case "hide":
			err = sess.HideColumn(rest)
		case "show":
			err = sess.ShowColumn(rest)
		case "history":
			entries, cur := sess.Entries()
			var acts []string
			for _, e := range entries {
				acts = append(acts, e.Action)
			}
			render.History(os.Stdout, acts, cur)
			show = false
		case "revert":
			var n int
			if n, err = strconv.Atoi(rest); err == nil {
				err = sess.Revert(n - 1)
			}
		case "sql":
			var p *etable.Pattern
			if p, err = bridge.Translate(rest); err == nil {
				fmt.Println("translated pattern:")
				render.Pattern(os.Stdout, p)
				var res *etable.Result
				if res, err = etable.Execute(tr.Instance, p); err == nil {
					render.Result(os.Stdout, res, render.Options{MaxRows: maxRows})
				}
			}
			show = false
		case "pattern":
			if p := sess.Pattern(); p != nil {
				render.Pattern(os.Stdout, p)
			} else {
				fmt.Println("no table open")
			}
			show = false
		case "rows":
			var n int
			if n, err = strconv.Atoi(rest); err == nil && n > 0 {
				maxRows = n
			}
			show = false
		default:
			fmt.Printf("unknown command %q — try 'help'\n", cmd)
			show = false
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		if show {
			res, err := sess.Result()
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			render.Result(os.Stdout, res, render.Options{MaxRows: maxRows})
		}
	}
}
