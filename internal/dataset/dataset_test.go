package dataset

import (
	"testing"

	"repro/internal/etable"
	"repro/internal/relational"
	"repro/internal/translate"
	"repro/internal/value"
)

func generateSmall(t testing.TB) *relational.DB {
	t.Helper()
	db, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestScaleAndIntegrity(t *testing.T) {
	db := generateSmall(t)
	stats := db.Stats()
	if stats["Papers"] != 300 || stats["Conferences"] != 19 {
		t.Errorf("stats = %v", stats)
	}
	if stats["Authors"] != 150 || stats["Institutions"] != 40 {
		t.Errorf("stats = %v", stats)
	}
	if stats["Paper_Authors"] < 300 {
		t.Errorf("paper_authors = %d, want >= one per paper", stats["Paper_Authors"])
	}
	if stats["Paper_Keywords"] < 3*300 {
		t.Errorf("paper_keywords = %d, want >= 3 per paper", stats["Paper_Keywords"])
	}
	if err := db.CheckForeignKeys(); err != nil {
		t.Errorf("referential integrity: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a := generateSmall(t)
	b := generateSmall(t)
	at, _ := a.Table("Papers")
	bt, _ := b.Table("Papers")
	if at.Len() != bt.Len() {
		t.Fatal("row counts differ")
	}
	for i := 0; i < at.Len(); i++ {
		ra, rb := at.Rows()[i], bt.Rows()[i]
		for c := range ra {
			if !value.Equal(ra[c], rb[c]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
	// Different seeds diverge.
	cfg := SmallConfig()
	cfg.Seed = 99
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := c.Table("Papers")
	same := true
	for i := 0; i < minInt(ct.Len(), at.Len()) && same; i++ {
		if !value.Equal(ct.Rows()[i][2], at.Rows()[i][2]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical titles")
	}
}

func TestYearBounds(t *testing.T) {
	db := generateSmall(t)
	papers, _ := db.Table("Papers")
	for _, r := range papers.Rows() {
		y := r[3].AsInt()
		if y < 2000 || y > 2015 {
			t.Fatalf("year %d out of range", y)
		}
	}
}

func TestCitationsPointBackward(t *testing.T) {
	db := generateSmall(t)
	refs, _ := db.Table("Paper_References")
	for _, r := range refs.Rows() {
		if r[1].AsInt() >= r[0].AsInt() {
			t.Fatalf("paper %d cites non-older paper %d", r[0].AsInt(), r[1].AsInt())
		}
	}
}

func TestSkewShapes(t *testing.T) {
	db := generateSmall(t)
	// Author productivity is skewed: the most productive author has
	// several times the mean.
	pa, _ := db.Table("Paper_Authors")
	counts := map[int64]int{}
	for _, r := range pa.Rows() {
		counts[r[1].AsInt()]++
	}
	maxC, total := 0, 0
	for _, c := range counts {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(maxC) < 2*mean {
		t.Errorf("productivity not skewed: max %d vs mean %.1f", maxC, mean)
	}
	// Citation in-degree is skewed too.
	refs, _ := db.Table("Paper_References")
	inDeg := map[int64]int{}
	for _, r := range refs.Rows() {
		inDeg[r[1].AsInt()]++
	}
	maxIn, totalIn := 0, 0
	for _, c := range inDeg {
		totalIn += c
		if c > maxIn {
			maxIn = c
		}
	}
	if len(inDeg) == 0 {
		t.Fatal("no citations generated")
	}
	meanIn := float64(totalIn) / float64(len(inDeg))
	if float64(maxIn) < 2*meanIn {
		t.Errorf("citations not skewed: max %d vs mean %.1f", maxIn, meanIn)
	}
}

func TestUniqueAuthorNames(t *testing.T) {
	db := generateSmall(t)
	authors, _ := db.Table("Authors")
	seen := map[string]bool{}
	for _, r := range authors.Rows() {
		n := r[1].AsString()
		if seen[n] {
			t.Fatalf("duplicate author name %q", n)
		}
		seen[n] = true
	}
}

func TestGenerateTranslated(t *testing.T) {
	db, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema.NodeType("Papers") == nil || tr.Schema.NodeType("Papers: year") == nil {
		t.Error("expected node types missing")
	}
	stats := tr.Instance.ComputeStats()
	if stats.NodesByType["Papers"] != 300 {
		t.Errorf("paper nodes = %d", stats.NodesByType["Papers"])
	}
	// The translated graph answers a Figure 1-style query.
	p, err := etable.Initiate(tr.Schema, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	p, err = etable.Add(tr.Schema, p, "Papers→Paper_Keywords: keyword")
	if err != nil {
		t.Fatal(err)
	}
	p, err = etable.Select(p, "keyword like '%user%'")
	if err != nil {
		t.Fatal(err)
	}
	p, err = etable.Shift(p, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	res, err := etable.Execute(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Error("no papers match %user% keywords; vocabulary broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	if cfg.Papers != 38000 || cfg.Authors != 19000 || cfg.YearMin != 2000 {
		t.Errorf("defaults = %+v", cfg)
	}
	small := Config{Papers: 4}
	small.fill()
	if small.Authors != 10 || small.Institutions > small.Authors {
		t.Errorf("small defaults = %+v", small)
	}
}
