package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
	"repro/internal/translate"
)

// goldenSaveSHA256 is the SHA-256 of Save over the 500-paper seed-1
// corpus at format Version 2. A change to the bytes Save writes must
// come with a Version bump — and then a new digest here.
const goldenSaveSHA256 = "f1dd3901228102b005976bc3264f49bb04a6ac3c6a1187a17487892920279cb6"

// TestSaveBytesGolden fails on any change to what Save writes for a
// fixed corpus unless the format version moved with it: parent and
// child commits may share a cached snapshot (the benchmark corpus is
// keyed only by its file size), so same version must mean same bytes.
func TestSaveBytesGolden(t *testing.T) {
	db, err := dataset.Generate(dataset.Config{Papers: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(saveBytes(t, tr.Instance))
	if got := hex.EncodeToString(sum[:]); got != goldenSaveSHA256 || Version != 2 {
		t.Fatalf("Save of the 500-paper corpus: sha256 %s at Version %d, golden %s at Version 2: "+
			"a byte change needs a Version bump (and then a new golden digest)", got, Version, goldenSaveSHA256)
	}
}
