package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// legsGolden holds every experiment's rows at the tiny scale, without the
// time columns.
var legsGolden = filepath.Join("testdata", "legs.golden")

// legsDocument runs every experiment at the tiny scale and renders each row's
// measures, one line per row in the order the experiment returns them. Time
// is left out: it is the one column that differs between two runs.
func legsDocument(t *testing.T) string {
	t.Helper()
	d := loadTiny(t)
	var b strings.Builder
	b.WriteString("experiment\tlabel\tpairs\treported\tdist_calcs\tqueue_max\tqueue_max_elements\tnode_io\tlast_dist\tretries\terr\n")
	add := func(id string, runs []Run, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, r := range runs {
			counters := fmt.Sprintf("%d\t%d\t%d\t%d", r.DistCalcs, r.MaxQueue, r.MaxElements, r.NodeIO)
			retries := strconv.FormatInt(r.Retries, 10)
			fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%s\t%s\t%s\t%q\n", id, r.Label, r.Pairs, r.Reported,
				counters, strconv.FormatFloat(r.LastDist, 'g', -1, 64), retries, r.Err)
		}
	}
	for _, e := range []struct {
		id  string
		run func(*Datasets) ([]Run, error)
	}{
		{"table1", Table1},
		{"table1r", Table1Reversed},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"faults", Faults},
		{"sec414", Sec414},
		{"sec423", Sec423},
		{"trace", TraceTTK},
	} {
		runs, err := e.run(d)
		add(e.id, runs, err)
	}
	runs, err := DimSweep(tiny)
	add("dims", runs, err)
	return b.String()
}

// TestExperimentLegsGolden pins what every experiment leg measures — pair
// counts, distance calculations, queue peaks, node I/O, last distance,
// retries and surfaced error — so that a change to how the legs are run
// leaves the tables of cmd/experiments as they were, time aside.
func TestExperimentLegsGolden(t *testing.T) {
	got := legsDocument(t)
	want, err := os.ReadFile(legsGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", legsGolden, i+1, g, w)
		}
	}
}
