package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"distjoin/internal/distjoin"
)

// tiny is a minimal scale that keeps the full experiment matrix fast enough
// for unit tests while still exercising every code path.
var tiny = Scale{
	Name:       "tiny",
	WaterN:     400,
	RoadsN:     1_500,
	PairCounts: []int{1, 10, 100},
	HybridDT1:  100,
	HybridDT2:  400,
	Seed:       7,
}

func loadTiny(t *testing.T) *Datasets {
	t.Helper()
	d, err := Load(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestScaleByName(t *testing.T) {
	if s, err := ScaleByName("small"); err != nil || s.Name != "small" {
		t.Fatalf("small: %v %v", s, err)
	}
	if s, err := ScaleByName(""); err != nil || s.Name != "small" {
		t.Fatalf("default: %v %v", s, err)
	}
	if s, err := ScaleByName("full"); err != nil || s.WaterN != 37495 {
		t.Fatalf("full: %v %v", s, err)
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestLoadBuildsValidTrees(t *testing.T) {
	d := loadTiny(t)
	if d.Water.Len() != tiny.WaterN || d.Roads.Len() != tiny.RoadsN {
		t.Fatalf("sizes: %d, %d", d.Water.Len(), d.Roads.Len())
	}
	if err := d.Water.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.Roads.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Shape(t *testing.T) {
	d := loadTiny(t)
	runs, err := Table1(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(tiny.PairCounts) {
		t.Fatalf("%d rows", len(runs))
	}
	for i, r := range runs {
		if r.Reported != tiny.PairCounts[i] {
			t.Fatalf("row %d reported %d, want %d", i, r.Reported, tiny.PairCounts[i])
		}
		if r.DistCalcs == 0 || r.MaxQueue == 0 || r.NodeIO == 0 {
			t.Fatalf("row %d has zero measures: %+v", i, r)
		}
	}
	// Monotonicity: more pairs never costs fewer distance calcs or I/Os.
	for i := 1; i < len(runs); i++ {
		if runs[i].DistCalcs < runs[i-1].DistCalcs || runs[i].NodeIO < runs[i-1].NodeIO {
			t.Fatalf("measures not monotone: %+v then %+v", runs[i-1], runs[i])
		}
		if runs[i].LastDist < runs[i-1].LastDist {
			t.Fatalf("k-th distance decreased: %+v then %+v", runs[i-1], runs[i])
		}
	}
}

func TestFig6AllVariantsAgreeOnDistances(t *testing.T) {
	d := loadTiny(t)
	runs, err := Fig6(d)
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesByLabel(runs)
	if len(series) != 4 {
		t.Fatalf("%d variants", len(series))
	}
	// All variants compute the same k-th distance for every k.
	ref := series["Even/DepthFirst"]
	for name, s := range series {
		if len(s) != len(ref) {
			t.Fatalf("%s has %d rows", name, len(s))
		}
		for i := range s {
			if s[i].LastDist != ref[i].LastDist {
				t.Fatalf("%s row %d: dist %g, reference %g", name, i, s[i].LastDist, ref[i].LastDist)
			}
		}
	}
}

func TestFig7MaxVariantsAgree(t *testing.T) {
	d := loadTiny(t)
	runs, err := Fig7(d)
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesByLabel(runs)
	ref := series["Regular"]
	if len(ref) != len(tiny.PairCounts) {
		t.Fatalf("regular has %d rows", len(ref))
	}
	// MaxDist/MaxPair runs must report the same distances as Regular for
	// the prefixes they cover.
	refDist := map[int]float64{}
	for _, r := range ref {
		refDist[r.Reported] = r.LastDist
	}
	for name, s := range series {
		if name == "Regular" {
			continue
		}
		for _, r := range s {
			if want, ok := refDist[r.Reported]; ok && r.LastDist != want {
				t.Fatalf("%s at %d pairs: dist %g, want %g", name, r.Reported, r.LastDist, want)
			}
		}
	}
	// The pruned variants must enqueue no more than Regular at equal pair
	// counts (that is their whole point).
	for _, s := range [][]Run{series["MaxDist 100"], series["MaxPair 100"]} {
		for _, r := range s {
			for _, rr := range ref {
				if rr.Reported == r.Reported && r.MaxQueue > rr.MaxQueue {
					t.Fatalf("%s queue %d exceeds regular %d at %d pairs",
						r.Label, r.MaxQueue, rr.MaxQueue, r.Reported)
				}
			}
		}
	}
}

func TestFig8QueueVariantsAgree(t *testing.T) {
	d := loadTiny(t)
	runs, err := Fig8(d)
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesByLabel(runs)
	if len(series) != 4 {
		t.Fatalf("%d variants", len(series))
	}
	ref := series["Memory"]
	for name, s := range series {
		for i := range s {
			if s[i].LastDist != ref[i].LastDist {
				t.Fatalf("%s row %d distance differs from memory queue", name, i)
			}
		}
	}
}

func TestFig9FiltersAgreeAndReportAll(t *testing.T) {
	d := loadTiny(t)
	runs, err := Fig9(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Pairs == 0 && r.Reported != tiny.WaterN {
			t.Fatalf("%s full run reported %d, want %d", r.Label, r.Reported, tiny.WaterN)
		}
	}
	series := SeriesByLabel(runs)
	// Stronger filters never enqueue more than weaker ones at the full run.
	fullQueue := func(label string) int64 {
		for _, r := range series[label+" (all)"] {
			return r.MaxQueue
		}
		return -1
	}
	if q1, q2 := fullQueue("Inside1"), fullQueue("GlobalAll"); q1 > 0 && q2 > q1 {
		t.Fatalf("GlobalAll queue %d exceeds Inside1 %d", q2, q1)
	}
}

func TestFig10SemiMaxVariants(t *testing.T) {
	d := loadTiny(t)
	runs, err := Fig10(d)
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesByLabel(runs)
	if _, ok := series["MaxDist All"]; !ok {
		t.Fatal("missing MaxDist All")
	}
	if _, ok := series["MaxPair All"]; !ok {
		t.Fatal("missing MaxPair All")
	}
	// MaxDist All and MaxPair All must still report every outer object.
	for _, label := range []string{"MaxDist All", "MaxPair All"} {
		for _, r := range series[label] {
			if r.Reported != tiny.WaterN {
				t.Fatalf("%s reported %d, want %d", label, r.Reported, tiny.WaterN)
			}
		}
	}
}

func TestSec414NestedLoopDominated(t *testing.T) {
	d := loadTiny(t)
	runs, err := Sec414(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d rows", len(runs))
	}
	nl, inc := runs[0], runs[1]
	if nl.DistCalcs != int64(tiny.WaterN)*int64(tiny.RoadsN) {
		t.Fatalf("nested loop computed %d distances", nl.DistCalcs)
	}
	if inc.DistCalcs >= nl.DistCalcs {
		t.Fatalf("incremental did not save distance calcs: %d vs %d", inc.DistCalcs, nl.DistCalcs)
	}
}

func TestSec423BothOrders(t *testing.T) {
	d := loadTiny(t)
	runs, err := Sec423(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("%d rows", len(runs))
	}
	// The memory queue delivers what the hybrid queue does, in both orders.
	for i, hybrid := range []Run{runs[0], runs[2]} {
		if mem := runs[4+i]; mem.Reported != hybrid.Reported || mem.LastDist != hybrid.LastDist || mem.DistCalcs != hybrid.DistCalcs {
			t.Fatalf("%s: %d pairs to %v with %d distances, %s: %d to %v with %d",
				mem.Label, mem.Reported, mem.LastDist, mem.DistCalcs, hybrid.Label, hybrid.Reported, hybrid.LastDist, hybrid.DistCalcs)
		}
	}
	// Incremental and NN-based produce the same cardinalities per order.
	if runs[0].Reported != runs[1].Reported {
		t.Fatalf("W⋉R cardinality: %d vs %d", runs[0].Reported, runs[1].Reported)
	}
	if runs[2].Reported != runs[3].Reported {
		t.Fatalf("R⋉W cardinality: %d vs %d", runs[2].Reported, runs[3].Reported)
	}
	if runs[0].Reported != tiny.WaterN || runs[2].Reported != tiny.RoadsN {
		t.Fatalf("cardinalities: %d, %d", runs[0].Reported, runs[2].Reported)
	}
}

func TestTable1Reversed(t *testing.T) {
	d := loadTiny(t)
	runs, err := Table1Reversed(d)
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesByLabel(runs)
	if len(series["Even(R⋈W)"]) != len(tiny.PairCounts) || len(series["Basic(R⋈W)"]) == 0 {
		t.Fatal("missing rows")
	}
	// Both orders and both traversals agree on the k-th distances (the
	// distance join is symmetric). Basic is capped at 1,000 pairs.
	for i := range series["Basic(R⋈W)"] {
		if series["Even(R⋈W)"][i].LastDist != series["Basic(R⋈W)"][i].LastDist {
			t.Fatal("reversed variants disagree on distances")
		}
	}
}

func TestFaultsShape(t *testing.T) {
	d := loadTiny(t)
	runs, err := Faults(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("%d rows, want 4 transient + 4 unrecoverable", len(runs))
	}
	anyRetry := false
	for i, r := range runs[:4] {
		if r.Err != "" {
			t.Fatalf("transient row %d surfaced %q", i, r.Err)
		}
		if r.Reported != runs[0].Reported || r.LastDist != runs[0].LastDist {
			t.Fatalf("transient row %d diverged from clean run: %+v vs %+v", i, r, runs[0])
		}
		anyRetry = anyRetry || r.Retries > 0
	}
	if !anyRetry {
		t.Fatal("no transient leg recorded a retry — faults never reached the queue store")
	}
	for _, r := range runs[4:] {
		if r.Err == "" {
			t.Fatalf("unrecoverable row %q completed cleanly", r.Label)
		}
		if r.Reported >= r.Pairs {
			t.Fatalf("unrecoverable row %q reported all %d pairs", r.Label, r.Reported)
		}
	}
}

func TestPrintRuns(t *testing.T) {
	var buf bytes.Buffer
	PrintRuns(&buf, "demo", []Run{
		{Label: "x", Pairs: 10, Reported: 10, Time: 1500 * time.Microsecond, DistCalcs: 5, MaxQueue: 7, NodeIO: 3, LastDist: 1.5},
		{Label: "y", Pairs: 0, Reported: 2},
	})
	out := buf.String()
	for _, want := range []string{"demo", "x", "1.50ms", "all", "dist.calc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second: "2.00s",
	}
	cases[3*time.Millisecond] = "3.00ms"
	cases[250*time.Microsecond] = "250µs"
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestDimSweep(t *testing.T) {
	runs, err := DimSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d dims", len(runs))
	}
	for _, r := range runs {
		if r.Reported == 0 || r.DistCalcs == 0 {
			t.Fatalf("dim run empty: %+v", r)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	runs := []Run{{Label: "x", Pairs: 5, Reported: 5, Time: 2 * time.Second, DistCalcs: 7, MaxQueue: 9, NodeIO: 11, LastDist: 3.5}}
	if err := WriteJSON(&buf, "table1", runs); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("%d rows", len(decoded))
	}
	row := decoded[0]
	if row["experiment"] != "table1" || row["variant"] != "x" {
		t.Fatalf("row: %v", row)
	}
	if row["seconds"].(float64) != 2.0 || row["dist_calcs"].(float64) != 7 {
		t.Fatalf("numbers wrong: %v", row)
	}
}

func TestLoadWithLatencyCharges(t *testing.T) {
	// The latency store must slow builds/queries without changing results
	// or counts. Keep it tiny so the test stays fast.
	tinyLat := tiny
	tinyLat.WaterN, tinyLat.RoadsN = 150, 400
	fast, err := LoadWithLatency(tinyLat, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := LoadWithLatency(tinyLat, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	rf, _, err := fast.open(distjoin.NewJoinIndexes, tinyLat.hybridOpts(), false).drain("fast", 50, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := slow.open(distjoin.NewJoinIndexes, tinyLat.hybridOpts(), false).drain("slow", 50, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rf.LastDist != rs.LastDist || rf.DistCalcs != rs.DistCalcs {
		t.Fatalf("latency changed results: %+v vs %+v", rf, rs)
	}
	if rs.NodeIO > 0 && rs.Time <= rf.Time {
		t.Logf("latency run not measurably slower (nodeIO=%d); acceptable on fast machines", rs.NodeIO)
	}
}
