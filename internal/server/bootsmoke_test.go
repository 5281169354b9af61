package server

// The full boot-from-disk path, end to end through the public SDK:
// translate a corpus, persist it as a snapshot, boot a server whose
// only knowledge of the data is the file path, and drive a query
// through pkg/client — the exact sequence CI's snapshot smoke step
// runs against a real process. The fresh-boot server must answer
// identically to one holding the original in-memory graph.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/translate"
	"repro/pkg/client"
)

func TestSnapshotBootServeQuery(t *testing.T) {
	// A server booted purely from the snapshot file (lazy default).
	path := snapshotFile(t, 80, 33)
	reg := registry.New(registry.Options{})
	if _, err := reg.AddSnapshot("default", path, 0); err != nil {
		t.Fatal(err)
	}
	bootTS := httptest.NewServer(NewFromRegistry(reg, Options{}))
	t.Cleanup(bootTS.Close)

	ctx := context.Background()
	c := client.New(bootTS.URL)

	// Discovery: the dataset is visible, untouched, snapshot-backed.
	dss, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 1 || dss[0].Loaded || dss[0].Source != "snapshot" {
		t.Fatalf("pre-load listing = %+v", dss)
	}

	query := []client.Op{
		client.Open("Papers"),
		client.Filter("year > 2005"),
		client.Pivot("Authors"),
	}
	_, st, err := c.NewSession(ctx, query...)
	if err != nil {
		t.Fatalf("query on snapshot-booted server: %v", err)
	}
	if st.TotalRows == 0 {
		t.Fatal("snapshot-booted server returned no rows")
	}

	// The same query through the dataset-scoped client route.
	_, scopedSt, err := c.Dataset("default").NewSession(ctx, query...)
	if err != nil {
		t.Fatalf("scoped query: %v", err)
	}
	if !reflect.DeepEqual(st.Rows, scopedSt.Rows) {
		t.Fatal("scoped route returned different rows than the unscoped alias")
	}

	// Reference: the same corpus served from memory (the generator is
	// deterministic for a fixed seed, so re-translating reproduces it)
	// must agree row-for-row with the snapshot boot.
	db, err := dataset.Generate(dataset.Config{Papers: 80, Authors: 40, Institutions: 15, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	trm, err := translate.Translate(db, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(New(trm.Schema, trm.Instance))
	t.Cleanup(memTS.Close)
	_, memSt, err := client.New(memTS.URL).NewSession(ctx, query...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Rows, memSt.Rows) || st.TotalRows != memSt.TotalRows {
		t.Fatal("snapshot-booted server disagrees with memory-served reference")
	}

	snapLoaded, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !snapLoaded[0].Loaded || snapLoaded[0].SnapshotBytes <= 0 || snapLoaded[0].Nodes == 0 {
		t.Fatalf("post-query listing = %+v", snapLoaded[0])
	}
}

// TestResidentSnapshotBootHasNoPager boots the default dataset the way
// `etable-server -snapshot` does (AddSnapshot + Ensure) under both
// residency policies: without -lazy the graph is fully decoded, so
// /api/v1/stats must report no pager block — an in-memory benchmark run
// treats one as out-of-core activity — and with -lazy it reports one
// with no fault: reading /api/v1/stats touches no column.
func TestResidentSnapshotBootHasNoPager(t *testing.T) {
	path := snapshotFile(t, 60, 35)
	for _, sections := range []int{0, 8} {
		lazy := sections > 0
		reg := registry.New(registry.Options{})
		ds, err := reg.AddSnapshot("default", path, sections)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ensure(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := ds.Graph().ColumnSourceAttached(); got != lazy {
			t.Fatalf("lazy=%v: column source attached = %v", lazy, got)
		}
		ts := httptest.NewServer(NewFromRegistry(reg, Options{}))
		var stats struct {
			Datasets []map[string]json.RawMessage `json:"datasets"`
		}
		code := getJSON(t, ts.URL+"/api/v1/stats", &stats)
		ts.Close()
		if code != http.StatusOK || len(stats.Datasets) != 1 {
			t.Fatalf("lazy=%v: stats %d, %d datasets", lazy, code, len(stats.Datasets))
		}
		pager, paged := stats.Datasets[0]["pager"]
		if paged != lazy {
			t.Fatalf("lazy=%v: pager block present = %v", lazy, paged)
		}
		var pst struct {
			Faults int64 `json:"faults"`
		}
		if paged && (json.Unmarshal(pager, &pst) != nil || pst.Faults != 0) {
			t.Fatalf("lazy=%v: /api/v1/stats faulted columns: pager %s", lazy, pager)
		}
	}
}
