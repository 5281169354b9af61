package server

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/translate"
)

// BenchmarkWindowEncode is the page kernel: one 100-row window of the
// served 38,000-paper graph (snapshot-loaded, as etable-server boots
// it) encoded straight from the presentation's cursor into a reused
// buffer — base cells formatted in place, every row and reference one
// copy of its label fragment. The session lock is held and the
// fragment tables are warm, so each iteration is exactly the encoder;
// allocs/op is 0. Arms: papers (3 reference columns, ~10 authors per
// row) and authors (the pivot target, whose Papers column dominates).
// MB/s is response bytes. PERFORMANCE.md §23 records it against the
// transformRange + Result encode it replaced.
func BenchmarkWindowEncode(b *testing.B) {
	db, err := dataset.Generate(dataset.Config{Papers: 38000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "served.etsnap")
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		b.Fatal(err)
	}
	snap, err := snapshot.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	g := snap.Graph
	for _, arm := range []struct {
		name, table string
		offset      int
	}{{"papers", "Papers", 19000}, {"authors", "Authors", 9000}} {
		b.Run(arm.name, func(b *testing.B) {
			sess := session.New(snap.Schema, g)
			if err := sess.Open(arm.table); err != nil {
				b.Fatal(err)
			}
			entries, cursor := sess.Entries()
			err := sess.ReadWindow(context.Background(), arm.offset, 100, func(w session.Window) error {
				buf, err := appendStateJSON(nil, 1, entries, cursor, &w, g, "")
				if err != nil {
					return err
				}
				b.SetBytes(int64(len(buf)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if buf, err = appendStateJSON(buf[:0], 1, entries, cursor, &w, g, ""); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
