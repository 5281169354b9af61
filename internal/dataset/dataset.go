// Package dataset generates the synthetic stand-in for the paper's
// evaluation corpus: an academic publication database "collected from
// DBLP and the ACM Digital Library" with about 38,000 papers from 19 top
// conferences in databases, data mining, and HCI since 2000, stored in
// the 7-relation schema of Figure 3 (see DESIGN.md for the substitution
// rationale).
//
// Generation is deterministic given a seed. Cardinality shapes follow
// the real corpus where they matter to ETable: multi-author papers
// (1–8 authors, preferentially attached so productivity is skewed),
// citation lists biased toward already-cited papers (skewed in-degree,
// like the counts visible in the paper's Figure 1), and Zipf-ish keyword
// frequency.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/relational"
	"repro/internal/value"
)

type area uint8

const (
	areaDB area = iota
	areaDM
	areaHCI
)

type conferenceSeed struct {
	Acronym string
	Title   string
	Area    area
	Weight  float64
}

// Config parameterizes generation. Zero values take defaults matching
// the paper's scale.
type Config struct {
	// Papers is the total paper count (default 38000).
	Papers int
	// Authors is the author pool size (default Papers/2).
	Authors int
	// Institutions is the institution count (default 400).
	Institutions int
	// Seed drives the deterministic RNG (default 1).
	Seed int64
	// YearMin and YearMax bound publication years (defaults 2000, 2015).
	YearMin, YearMax int
	// MaxAuthorsPerPaper bounds author lists (default 8).
	MaxAuthorsPerPaper int
	// MaxReferences bounds per-paper citation lists (default 25).
	MaxReferences int
	// MaxKeywords bounds per-paper keyword lists (default 10).
	MaxKeywords int
}

func (c *Config) fill() {
	if c.Papers == 0 {
		c.Papers = 38000
	}
	if c.Authors == 0 {
		c.Authors = c.Papers / 2
		if c.Authors < 10 {
			c.Authors = 10
		}
	}
	if c.Institutions == 0 {
		c.Institutions = 400
		if c.Institutions > c.Authors {
			c.Institutions = (c.Authors + 1) / 2
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.YearMin == 0 {
		c.YearMin = 2000
	}
	if c.YearMax == 0 {
		c.YearMax = 2015
	}
	if c.MaxAuthorsPerPaper == 0 {
		c.MaxAuthorsPerPaper = 8
	}
	if c.MaxReferences == 0 {
		c.MaxReferences = 25
	}
	if c.MaxKeywords == 0 {
		c.MaxKeywords = 10
	}
}

// Generate builds the Figure 3 relational database.
func Generate(cfg Config) (*relational.DB, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relational.NewDB()
	if err := createSchema(db); err != nil {
		return nil, err
	}

	confs, _ := db.Table("Conferences")
	insts, _ := db.Table("Institutions")
	authors, _ := db.Table("Authors")
	papers, _ := db.Table("Papers")
	paperAuthors, _ := db.Table("Paper_Authors")
	paperRefs, _ := db.Table("Paper_References")
	paperKeywords, _ := db.Table("Paper_Keywords")

	// Conferences: the fixed pool of 19.
	confWeights := make([]float64, len(conferencePool))
	totalW := 0.0
	for i, c := range conferencePool {
		if _, err := confs.InsertValues(value.Int(int64(i+1)), value.Str(c.Acronym), value.Str(c.Title)); err != nil {
			return nil, err
		}
		confWeights[i] = c.Weight
		totalW += c.Weight
	}

	// Institutions with weighted countries.
	countryOf := make([]string, cfg.Institutions)
	countryTotal := 0
	for _, cw := range countryWeights {
		countryTotal += cw.Weight
	}
	seenInstNames := map[string]bool{}
	for i := 0; i < cfg.Institutions; i++ {
		name := ""
		for {
			tmpl := institutionTemplates[rng.Intn(len(institutionTemplates))]
			place := institutionPlaces[rng.Intn(len(institutionPlaces))]
			name = fmt.Sprintf(tmpl, place)
			if !seenInstNames[name] {
				break
			}
			name = fmt.Sprintf("%s %d", name, i)
			if !seenInstNames[name] {
				break
			}
		}
		seenInstNames[name] = true
		r := rng.Intn(countryTotal)
		country := countryWeights[len(countryWeights)-1].Country
		for _, cw := range countryWeights {
			if r < cw.Weight {
				country = cw.Country
				break
			}
			r -= cw.Weight
		}
		countryOf[i] = country
		if _, err := insts.InsertValues(value.Int(int64(i+1)), value.Str(name), value.Str(country)); err != nil {
			return nil, err
		}
	}

	// Authors with unique names, assigned to institutions.
	seenAuthors := map[string]bool{}
	for i := 0; i < cfg.Authors; i++ {
		name := ""
		for {
			name = firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
			if !seenAuthors[name] {
				break
			}
			name = fmt.Sprintf("%s %c.", name, 'A'+rng.Intn(26))
			if !seenAuthors[name] {
				break
			}
			name = fmt.Sprintf("%s %d", name, i)
			break
		}
		seenAuthors[name] = true
		inst := rng.Intn(cfg.Institutions) + 1
		if _, err := authors.InsertValues(value.Int(int64(i+1)), value.Str(name), value.Int(int64(inst))); err != nil {
			return nil, err
		}
	}

	// Papers. Years grow mildly over time; conferences chosen by weight.
	keywordPool := func(a area) []string { return areaKeywords[a] }
	pickConf := func() int {
		r := rng.Float64() * totalW
		for i, w := range confWeights {
			if r < w {
				return i
			}
			r -= w
		}
		return len(confWeights) - 1
	}
	years := cfg.YearMax - cfg.YearMin + 1
	paperYear := make([]int, cfg.Papers)
	paperConfArea := make([]area, cfg.Papers)
	seenTitles := map[string]bool{}
	for i := 0; i < cfg.Papers; i++ {
		ci := pickConf()
		seed := conferencePool[ci]
		// Triangular-ish year distribution favoring recent years.
		y := cfg.YearMin + maxInt(rng.Intn(years), rng.Intn(years))
		paperYear[i] = y
		paperConfArea[i] = seed.Area

		kws := keywordPool(seed.Area)
		title := fmt.Sprintf(titlePatterns[rng.Intn(len(titlePatterns))],
			titleNouns[rng.Intn(len(titleNouns))], kws[rng.Intn(len(kws))])
		if seenTitles[title] {
			title = fmt.Sprintf("%s (part %d)", title, i)
		}
		seenTitles[title] = true
		pageStart := 1 + rng.Intn(1400)
		pageEnd := pageStart + 3 + rng.Intn(12)
		if _, err := papers.InsertValues(
			value.Int(int64(i+1)), value.Int(int64(ci+1)), value.Str(title),
			value.Int(int64(y)), value.Int(int64(pageStart)), value.Int(int64(pageEnd)),
		); err != nil {
			return nil, err
		}
	}

	// Paper authors: preferential attachment over a per-paper sample.
	authorWeight := make([]int, cfg.Authors+1)
	for i := range authorWeight {
		authorWeight[i] = 1
	}
	for p := 1; p <= cfg.Papers; p++ {
		n := 1 + rng.Intn(cfg.MaxAuthorsPerPaper)
		chosen := map[int]bool{}
		for o := 1; o <= n; o++ {
			a := 0
			for tries := 0; tries < 12; tries++ {
				// Preferential: sample two, keep the heavier.
				c1, c2 := 1+rng.Intn(cfg.Authors), 1+rng.Intn(cfg.Authors)
				a = c1
				if authorWeight[c2] > authorWeight[c1] {
					a = c2
				}
				if !chosen[a] {
					break
				}
			}
			if chosen[a] {
				continue
			}
			chosen[a] = true
			authorWeight[a]++
			if _, err := paperAuthors.InsertValues(
				value.Int(int64(p)), value.Int(int64(a)), value.Int(int64(o)),
			); err != nil {
				return nil, err
			}
		}
	}

	// Citations: papers cite strictly older papers, preferentially ones
	// already cited (rich-get-richer in-degree).
	citeWeight := make([]int, cfg.Papers+1)
	for i := range citeWeight {
		citeWeight[i] = 1
	}
	for p := 2; p <= cfg.Papers; p++ {
		n := rng.Intn(cfg.MaxReferences + 1)
		if n > p-1 {
			n = p - 1
		}
		chosen := map[int]bool{}
		for k := 0; k < n; k++ {
			c1, c2 := 1+rng.Intn(p-1), 1+rng.Intn(p-1)
			ref := c1
			if citeWeight[c2] > citeWeight[c1] {
				ref = c2
			}
			if chosen[ref] {
				continue
			}
			chosen[ref] = true
			citeWeight[ref]++
			if _, err := paperRefs.InsertValues(value.Int(int64(p)), value.Int(int64(ref))); err != nil {
				return nil, err
			}
		}
	}

	// Keywords: area vocabulary plus shared tail, Zipf-ish via the
	// two-sample trick over a frequency-ordered vocabulary.
	for p := 1; p <= cfg.Papers; p++ {
		vocab := append(append([]string{}, keywordPool(paperConfArea[p-1])...), tailKeywords...)
		n := 3 + rng.Intn(cfg.MaxKeywords-2)
		chosen := map[string]bool{}
		for k := 0; k < n; k++ {
			i1, i2 := rng.Intn(len(vocab)), rng.Intn(len(vocab))
			kw := vocab[minInt(i1, i2)] // earlier vocabulary entries more frequent
			if chosen[kw] {
				continue
			}
			chosen[kw] = true
			if _, err := paperKeywords.InsertValues(value.Int(int64(p)), value.Str(kw)); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// createSchema creates the Figure 3 relations.
func createSchema(db *relational.DB) error {
	schemas := []relational.Schema{
		{
			Name: "Conferences",
			Columns: []relational.Column{
				{Name: "id", Type: value.KindInt},
				{Name: "acronym", Type: value.KindString},
				{Name: "title", Type: value.KindString},
			},
			PrimaryKey: []string{"id"},
		},
		{
			Name: "Institutions",
			Columns: []relational.Column{
				{Name: "id", Type: value.KindInt},
				{Name: "name", Type: value.KindString},
				{Name: "country", Type: value.KindString},
			},
			PrimaryKey: []string{"id"},
		},
		{
			Name: "Authors",
			Columns: []relational.Column{
				{Name: "id", Type: value.KindInt},
				{Name: "name", Type: value.KindString},
				{Name: "institution_id", Type: value.KindInt},
			},
			PrimaryKey: []string{"id"},
			ForeignKeys: []relational.ForeignKey{
				{Col: "institution_id", RefTable: "Institutions", RefCol: "id"},
			},
		},
		{
			Name: "Papers",
			Columns: []relational.Column{
				{Name: "id", Type: value.KindInt},
				{Name: "conference_id", Type: value.KindInt},
				{Name: "title", Type: value.KindString},
				{Name: "year", Type: value.KindInt},
				{Name: "page_start", Type: value.KindInt},
				{Name: "page_end", Type: value.KindInt},
			},
			PrimaryKey: []string{"id"},
			ForeignKeys: []relational.ForeignKey{
				{Col: "conference_id", RefTable: "Conferences", RefCol: "id"},
			},
		},
		{
			Name: "Paper_Authors",
			Columns: []relational.Column{
				{Name: "paper_id", Type: value.KindInt},
				{Name: "author_id", Type: value.KindInt},
				{Name: "order", Type: value.KindInt},
			},
			PrimaryKey: []string{"paper_id", "author_id"},
			ForeignKeys: []relational.ForeignKey{
				{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
				{Col: "author_id", RefTable: "Authors", RefCol: "id"},
			},
		},
		{
			Name: "Paper_References",
			Columns: []relational.Column{
				{Name: "paper_id", Type: value.KindInt},
				{Name: "ref_paper_id", Type: value.KindInt},
			},
			PrimaryKey: []string{"paper_id", "ref_paper_id"},
			ForeignKeys: []relational.ForeignKey{
				{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
				{Col: "ref_paper_id", RefTable: "Papers", RefCol: "id"},
			},
		},
		{
			Name: "Paper_Keywords",
			Columns: []relational.Column{
				{Name: "paper_id", Type: value.KindInt},
				{Name: "keyword", Type: value.KindString},
			},
			PrimaryKey: []string{"paper_id", "keyword"},
			ForeignKeys: []relational.ForeignKey{
				{Col: "paper_id", RefTable: "Papers", RefCol: "id"},
			},
		},
	}
	for _, s := range schemas {
		if _, err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
}

// SmallConfig returns a configuration sized for tests: a few hundred
// papers, generated in milliseconds.
func SmallConfig() Config {
	return Config{Papers: 300, Authors: 150, Institutions: 40, Seed: 7}
}
