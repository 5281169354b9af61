package main

// The corpus: generated, translated and saved as an .etsnap snapshot
// once per work directory, then reused by every run. Build timings are
// kept in a sidecar so the traced run can still report them when the
// corpus came from the cache; none of this is part of setup_s.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
	"unicode"

	"repro/internal/dataset"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// Corpus sizes: the paper's 38,000 papers (57,536 nodes, 1.92 M edges,
// a 12.8 MB snapshot) and the smoke corpus.
const (
	paperScalePapers = 38000
	smokePapers      = 2000
)

// corpusMeta is the sidecar written next to the snapshot.
type corpusMeta struct {
	Papers     int     `json:"papers"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	FileBytes  int64   `json:"fileBytes"`
	GenerateS  float64 `json:"generateS"`
	TranslateS float64 `json:"translateS"`
	SaveS      float64 `json:"saveS"`
}

// ensureCorpus returns the snapshot path for a papers-sized corpus
// under dir, building it first if the cache does not hold it.
func ensureCorpus(dir string, papers int) (string, corpusMeta, error) {
	path := filepath.Join(dir, fmt.Sprintf("corpus-%d.etsnap", papers))
	metaPath := path + ".json"
	var meta corpusMeta
	if buf, err := os.ReadFile(metaPath); err == nil && json.Unmarshal(buf, &meta) == nil && meta.Papers == papers {
		if fi, err := os.Stat(path); err == nil && fi.Size() == meta.FileBytes {
			return path, meta, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", meta, err
	}
	logf("building the %d-paper corpus in %s", papers, dir)
	t0 := time.Now()
	db, err := dataset.Generate(dataset.Config{Papers: papers, Seed: 1})
	if err != nil {
		return "", meta, fmt.Errorf("generating corpus: %w", err)
	}
	t1 := time.Now()
	// The same lifting etable-server and etable-translate apply.
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		return "", meta, fmt.Errorf("translating corpus: %w", err)
	}
	t2 := time.Now()
	// SaveFile writes a temp file and renames, so a killed build never
	// leaves a truncated snapshot under the cached name.
	n, err := snapshot.SaveFile(path, tr.Instance)
	if err != nil {
		return "", meta, fmt.Errorf("saving corpus: %w", err)
	}
	t3 := time.Now()
	meta = corpusMeta{
		Papers: papers, Nodes: tr.Instance.NumNodes(), Edges: tr.Instance.NumEdges(), FileBytes: n,
		GenerateS: t1.Sub(t0).Seconds(), TranslateS: t2.Sub(t1).Seconds(), SaveS: t3.Sub(t2).Seconds(),
	}
	buf, _ := json.Marshal(meta)
	if err := os.WriteFile(metaPath, buf, 0o644); err != nil {
		return "", meta, err
	}
	return path, meta, nil
}

// Pool sizes for the names read from the corpus. The name pools are
// about as large as the number of scripts of one kind a client runs in
// ten seconds, so that a name comes round about once per client: three
// cache lookups in four then find a relation another session computed
// (execution-cache hit ratio ≈ 0.77, ≈ 0.33 misses per op), and the
// rest do real plan + match work.
const (
	namePoolSize = 96
	gramPoolSize = 24
)

// poolsFromGraph derives the script parameter domains from the corpus.
func poolsFromGraph(g *tgm.InstanceGraph) (pools, error) {
	labels := func(typeName string) []string {
		ids := g.NodesOfType(typeName)
		out := make([]string, 0, len(ids))
		for _, id := range ids {
			out = append(out, g.Node(id).Label())
		}
		sort.Strings(out)
		return out
	}
	// spread picks n evenly spaced distinct labels of a sorted list.
	spread := func(all []string, n int) []string {
		var out []string
		for i := 0; i < n && len(all) > 0; i++ {
			s := all[i*len(all)/n]
			if len(out) == 0 || out[len(out)-1] != s {
				out = append(out, s)
			}
		}
		return out
	}
	authors := labels("Authors")
	p := pools{
		Conferences:  labels("Conferences"),
		Countries:    labels("Institutions: country"),
		Authors:      spread(authors, namePoolSize),
		Institutions: spread(labels("Institutions"), namePoolSize),
		Papers:       spread(labels("Papers"), namePoolSize),
	}
	for _, y := range labels("Papers: year") {
		var n int
		if _, err := fmt.Sscanf(y, "%d", &n); err != nil {
			return p, fmt.Errorf("corpus year label %q is not a number", y)
		}
		p.Years = append(p.Years, n)
	}
	// The most frequent letter 2-grams of author names, ties broken
	// alphabetically, so a LIKE over one matches a sizeable share.
	freq := map[string]int{}
	for _, name := range authors {
		low := strings.ToLower(name)
		for i := 0; i+2 <= len(low); i++ {
			if a, b := rune(low[i]), rune(low[i+1]); a < 128 && b < 128 && unicode.IsLetter(a) && unicode.IsLetter(b) {
				freq[low[i:i+2]]++
			}
		}
	}
	for gram := range freq {
		p.Grams = append(p.Grams, gram)
	}
	sort.Slice(p.Grams, func(i, j int) bool {
		if fi, fj := freq[p.Grams[i]], freq[p.Grams[j]]; fi != fj {
			return fi > fj
		}
		return p.Grams[i] < p.Grams[j]
	})
	p.Grams = p.Grams[:min(gramPoolSize, len(p.Grams))]
	for name, n := range map[string]int{
		"Conferences": len(p.Conferences), "countries": len(p.Countries), "years": len(p.Years),
		"Authors": len(p.Authors), "Institutions": len(p.Institutions), "Papers": len(p.Papers), "2-grams": len(p.Grams),
	} {
		if n == 0 {
			return p, fmt.Errorf("corpus has no %s to draw script parameters from", name)
		}
	}
	return p, nil
}
