package server

// The dataset discovery surface: GET /api/v1/datasets lists every
// registered dataset, GET /api/v1/datasets/{name} inspects one. Both
// are pure reads over the registry — inspecting a lazy dataset does
// NOT load it (the loaded flag tells the client whether the first
// session on it will pay the boot cost). Session routes nested under
// /api/v1/datasets/{name}/ share the unscoped handlers; see server.go.

import "net/http"

// datasetJSON is one dataset in the list/inspect payloads.
type datasetJSON struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	// Loaded reports residency; a lazy dataset loads on its first
	// session, schema, or query request — never on this endpoint.
	Loaded bool `json:"loaded"`
	// Source is "memory" for datasets born from an in-process
	// translation, "snapshot" for ones backed by an .etsnap file.
	Source string `json:"source"`
	// Lazy marks snapshot datasets configured for out-of-core boot:
	// loading decodes only the skeleton and attribute columns fault in
	// on demand through a bounded pager.
	Lazy bool `json:"lazy,omitempty"`
	// FileBytes and FileSections come from the snapshot header alone,
	// inspected once at registration — available before (and without)
	// any load. Omitted when the file was unreadable at registration.
	FileBytes    int64 `json:"fileBytes,omitempty"`
	FileSections int   `json:"fileSections,omitempty"`
	// SnapshotBytes and LoadMs are the observed boot-from-disk cost
	// (zero until a deferred dataset loads; always zero for memory
	// ones).
	SnapshotBytes int64   `json:"snapshotBytes,omitempty"`
	LoadMs        float64 `json:"loadMs,omitempty"`
	// Nodes and Edges are the graph size: from the resident graph once
	// loaded, else from the snapshot header when one was inspected.
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Sessions counts live sessions bound to this dataset.
	Sessions int `json:"sessions"`
}

// datasetInfo renders one dataset's discovery entry.
func (s *Server) datasetInfo(name string) (datasetJSON, bool) {
	ds, ok := s.reg.Get(name)
	if !ok {
		return datasetJSON{}, false
	}
	d := datasetJSON{
		Name:    name,
		Default: ds == s.reg.Default(),
		Loaded:  ds.Loaded(),
		Source:  "memory",
	}
	if ds.Path() != "" {
		d.Source = "snapshot"
		d.Lazy = ds.Lazy()
	}
	if info, ok := ds.FileInfo(); ok {
		d.FileBytes = info.Bytes
		d.FileSections = len(info.Sections)
		d.Nodes = info.Nodes
		d.Edges = info.Edges
	}
	bytes, dur := ds.LoadMetrics()
	d.SnapshotBytes = bytes
	d.LoadMs = float64(dur.Microseconds()) / 1e3
	if d.Loaded {
		g := ds.Graph()
		d.Nodes = g.NumNodes()
		d.Edges = g.NumEdges()
	}
	for _, e := range s.sessions.Values() {
		if e.ds == ds {
			d.Sessions++
		}
	}
	return d, true
}

// handleDatasets lists every registered dataset, sorted by name.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Datasets []datasetJSON `json:"datasets"`
	}{Datasets: []datasetJSON{}}
	for _, name := range s.reg.Names() {
		if d, ok := s.datasetInfo(name); ok {
			out.Datasets = append(out.Datasets, d)
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleDatasetInfo inspects one dataset by name.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ds")
	d, ok := s.datasetInfo(name)
	if !ok {
		s.writeErr(w, apiErr(http.StatusNotFound, codeDatasetNotFound, "no dataset %q", name))
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}
