package rtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"distjoin/internal/geom"
)

// FuzzDecodeNode: on arbitrary page bytes the node deserializer — where
// persisted bytes enter the engine — either returns an error or a read node
// whose coordinate block, refs and Points agree with the node's entry form,
// and which re-encodes through that entry form to the same entry bytes, NaN
// payloads included. It never panics.
func FuzzDecodeNode(f *testing.F) {
	const dims = 2
	// Seed with a valid page.
	valid := make([]byte, 512)
	n := &Node{Page: 1, Entries: []Entry{
		{Rect: geom.R(geom.Pt(1, 2), geom.Pt(3, 4)), Obj: 7},
	}}
	encodeNode(n, dims, valid)
	f.Add(valid)
	corrupt := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(corrupt[2:], 9999)
	f.Add(corrupt)
	nan := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nan[nodeHeaderSize:], math.Float64bits(math.NaN())|1)
	f.Add(nan)
	f.Add(make([]byte, 512))
	f.Fuzz(func(t *testing.T, page []byte) {
		if len(page) < nodeHeaderSize {
			return
		}
		decoded, err := decodeNode(1, dims, page)
		if err != nil {
			return
		}
		w := 2 * dims
		form := decoded.entryForm()
		entries := form.Entries
		if len(decoded.Coords) != len(entries)*w || len(decoded.Refs) != len(entries) {
			t.Fatalf("%d coordinates and %d refs for %d entries", len(decoded.Coords), len(decoded.Refs), len(entries))
		}
		points := form.Leaf()
		for k, e := range entries {
			if &e.Rect.Lo[0] != &decoded.Coords[k*w] || &e.Rect.Hi[0] != &decoded.Coords[k*w+dims] {
				t.Fatalf("entry %d's rectangle is not a view of its run of the coordinate block", k)
			}
			if ref := uint64(e.Obj) + uint64(e.Child); decoded.Refs[k] != ref {
				t.Fatalf("entry %d: ref %d, the entry names %d", k, decoded.Refs[k], ref)
			}
			points = points && e.Rect.IsPoint()
		}
		if decoded.Points != points {
			t.Fatalf("Points %v on a node whose leaf entries are all points: %v", decoded.Points, points)
		}
		buf := make([]byte, len(page))
		encodeNode(form, dims, buf)
		end := nodeHeaderSize + len(entries)*entrySize(dims)
		if !bytes.Equal(buf[1:4], page[1:4]) || !bytes.Equal(buf[nodeHeaderSize:end], page[nodeHeaderSize:end]) {
			t.Fatalf("the decoded node re-encodes to other bytes")
		}
	})
}
