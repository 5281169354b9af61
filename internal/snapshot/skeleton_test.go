package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

// skeletonSchema is two node types, A then B, of one INT attribute each.
func skeletonSchema(t testing.TB) *tgm.SchemaGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"A", "B"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Kind: tgm.NodeEntity, Label: "k",
			Attrs: []tgm.Attr{{Name: "k", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// FuzzDecodeSkeleton holds the NSKL decoder to its contract over
// arbitrary payload bytes, with the schema (A and B, one attribute
// each) and META (four nodes) fixed: the payload either decodes to a
// graph in which every type's IDs are one run and the four IDs are
// each claimed once, and whose skeleton re-encodes to exactly the same
// bytes, or fails with a *CorruptError; it never panics. The seed
// corpus (testdata/fuzz) holds one run per type and each rejection:
// interleaved types, a zero delta, an out-of-range ID, an ID claimed
// twice and a truncated varint.
func FuzzDecodeSkeleton(f *testing.F) {
	schema := skeletonSchema(f)
	m := meta{nodes: 4, nodeTypes: 2}
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, dir, err := decodeSkeleton(payload, schema, m)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != secSkel {
				t.Fatalf("error %v (%T) is not a *CorruptError on %s", err, err, secSkel)
			}
			return
		}
		if g.NumNodes() != m.nodes {
			t.Fatalf("decoded %d nodes, META says %d", g.NumNodes(), m.nodes)
		}
		re := &enc{}
		for ti, nt := range schema.NodeTypes() {
			ids := g.NodesOfType(nt.Name)
			lo, hi := g.TypeIDRange(nt.Name)
			if len(ids) > 0 && int(hi-lo)+1 != len(ids) {
				t.Fatalf("type %s: IDs %v are not one run [%d, %d]", nt.Name, ids, lo, hi)
			}
			for i, id := range ids {
				if id != lo+tgm.NodeID(i) || g.Node(id).Type != nt {
					t.Fatalf("type %s: ID %d at row %d (run starts at %d)", nt.Name, id, i, lo)
				}
			}
			if dir[ti].rows != len(ids) {
				t.Fatalf("type %s: directory says %d rows for %d nodes", nt.Name, dir[ti].rows, len(ids))
			}
			re.u(uint64(len(ids)))
			for i, id := range ids {
				if i == 0 {
					re.u(uint64(id))
				} else {
					re.u(1)
				}
			}
			for _, cm := range dir[ti].cols {
				re.u(cm.off)
				re.u(cm.length)
				re.u(uint64(cm.crc))
			}
		}
		if !bytes.Equal(re.buf, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", re.buf, payload)
		}
	})
}

// TestLoadRejectsInterleavedSkeleton: a saved 2+2-node file whose NSKL
// ID lists are patched to A:[0,2] and B:[1,3] — each varint keeps its
// length and the section's CRC-32C is recomputed, so only the layout is
// wrong — fails both the eager and the lazy open with a *CorruptError
// on NSKL, and for the one-run reason, not a checksum.
func TestLoadRejectsInterleavedSkeleton(t *testing.T) {
	g := tgm.NewInstanceGraph(skeletonSchema(t))
	for _, name := range []string{"A", "A", "B", "B"} {
		if _, err := g.AddNode(name, []value.V{value.Int(7)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	data := saveBytes(t, g)

	// Find NSKL's section-table entry: tag, offset, length, CRC-32C.
	entry := -1
	for i := 0; i < int(binary.LittleEndian.Uint32(data[12:])); i++ {
		if e := headerFixed + i*sectionEntrySize; string(data[e:e+4]) == secSkel {
			entry = e
		}
	}
	if entry < 0 {
		t.Fatal("no NSKL section")
	}
	off := binary.LittleEndian.Uint64(data[entry+4:])
	skel := data[off : off+binary.LittleEndian.Uint64(data[entry+12:])]

	// A's list is count, 0, +1, then its one column's off/len/crc; B's
	// list follows as count, 2, +1. Rewrite them as A: 0, +2 and B: 1, +2.
	b := 3
	for range 3 {
		_, n := uvarint(skel[b:])
		b += n
	}
	if want := []byte{2, 0, 1}; !bytes.Equal(skel[:3], want) || !bytes.Equal(skel[b:b+3], []byte{2, 2, 1}) {
		t.Fatalf("unexpected NSKL layout %x", skel)
	}
	skel[2] = 2
	skel[b+1], skel[b+2] = 1, 2
	binary.LittleEndian.PutUint32(data[entry+20:], crc32.Checksum(skel, castagnoli))

	path := filepath.Join(t.TempDir(), "interleaved.etsnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != secSkel || !strings.Contains(ce.Reason, "one run") {
			t.Fatalf("%s: got %v, want a *CorruptError on %s for the one-run layout", what, err, secSkel)
		}
	}
	_, err := Load(path)
	check("Load", err)
	ls, err := LazyLoad(path, LazyOptions{PoolSections: 2})
	if err == nil {
		ls.Close()
	}
	check("LazyLoad", err)
}
