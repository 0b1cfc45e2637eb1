package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// jsonEncode is what the pull encoder must reproduce byte for byte:
// json.NewEncoder(w).Encode(doc), which writes nothing when it fails.
func jsonEncode(t *testing.T, doc any) []byte {
	t.Helper()
	var w bytes.Buffer
	json.NewEncoder(&w).Encode(doc)
	return w.Bytes()
}

// checkPullEncoding compares the pull encoder with encoding/json on the
// /next document of pairs and on each NDJSON line and the trailer a stream
// pull of the same pairs writes.
func checkPullEncoding(t *testing.T, pairs []PairJSON, s string, reported int64, done bool) {
	t.Helper()
	resp := NextResponse{Cursor: s, Pairs: pairs, Done: done, Reported: reported, ExpiresAt: s, Truncated: s}
	for _, r := range []NextResponse{resp, {Cursor: resp.Cursor, Pairs: pairs, Reported: reported, ExpiresAt: resp.ExpiresAt}} {
		got, ok := appendNext([]byte("stale"), &r)
		got = got[len("stale"):]
		if want := jsonEncode(t, r); ok != (len(want) > 0) || ok && !bytes.Equal(got, want) {
			t.Fatalf("next document of %+v:\n got %q (ok %v)\nwant %q", r, got, ok, want)
		}
	}
	for _, p := range pairs {
		got, ok := appendPairLine(nil, p)
		if want := jsonEncode(t, p); ok != (len(want) > 0) || ok && !bytes.Equal(got, want) {
			t.Fatalf("stream line of %+v:\n got %q (ok %v)\nwant %q", p, got, ok, want)
		}
	}
	for _, tr := range []streamTrailer{
		{Done: done, Reported: reported},
		{Done: done, Reported: reported, Error: s, Truncated: s},
	} {
		if got, want := appendTrailer(nil, &tr), jsonEncode(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("trailer %+v:\n got %q\nwant %q", tr, got, want)
		}
	}
}

func TestPullEncodingMatchesEncodingJSON(t *testing.T) {
	var dists []float64
	for _, d := range []float64{
		0, math.Copysign(0, -1), 1, 2, 3, 1e6, 123456789, 1 << 53, // integral
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-9, 1e-10,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.2345e100,
		5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		0.1, 1.0 / 3, 12.5, 999999.999999, 1e20, 2.5e-5,
		math.NaN(), math.Inf(1), math.Inf(-1), // encoding/json refuses these
	} {
		dists = append(dists, d, -d)
	}
	var all []PairJSON
	for i, d := range dists {
		p := PairJSON{Obj1: uint64(i), Obj2: math.MaxUint64 - uint64(i), Dist: d}
		checkPullEncoding(t, []PairJSON{p}, "c0000001", int64(i), i%2 == 0)
		if !math.IsNaN(d) && !math.IsInf(d, 0) {
			all = append(all, p)
		}
	}
	checkPullEncoding(t, all, "c0000001", math.MaxInt64, true)
	checkPullEncoding(t, nil, "c0000001", 0, false)
	checkPullEncoding(t, []PairJSON{}, "c0000001", 0, true)
	for _, s := range []string{
		"", "pull timeout", "client disconnected", `cursor c1 failed: "quoted" \ back`,
		"<script>&amp;</script>", "tab\tnew\nline\rcr\bbs\fff", "\x00\x01\x1f\x7f",
		"é ü 日本", "line\u2028para\u2029", "bad \xff\xfe utf8", "\xed\xa0\x80", "trunc \xe6\x97",
	} {
		checkPullEncoding(t, all[:3], s, 7, false)
	}
}

func FuzzPullEncoding(f *testing.F) {
	f.Add(uint64(1), uint64(2), 0.5, 1e-7, "c0000001", int64(20), false)
	f.Add(uint64(0), uint64(math.MaxUint64), 1e21, 5e-324, "<&>\u2028\xff", int64(-1), true)
	f.Add(uint64(7), uint64(9), math.MaxFloat64, math.Copysign(0, -1), "pull timeout", int64(0), true)
	f.Fuzz(func(t *testing.T, o1, o2 uint64, d1, d2 float64, s string, reported int64, done bool) {
		pairs := []PairJSON{{Obj1: o1, Obj2: o2, Dist: d1}, {Obj1: o2, Obj2: o1, Dist: d2}}
		checkPullEncoding(t, pairs, s, reported, done)
		checkPullEncoding(t, pairs[:1], s, reported, done)
		checkPullEncoding(t, pairs[:0], s, reported, done)
	})
}
