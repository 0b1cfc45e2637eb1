package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// add folds one span of duration d in phase p into s, as a meter would.
func add(s *Spans, p Phase, d time.Duration) {
	var t Tally
	t.NS[p], t.Counts[p] = int64(d), 1
	s.Fold(&t)
}

func TestNilSpansSafe(t *testing.T) {
	var s *Spans
	add(s, PhaseExpand, time.Millisecond)
	s.ObserveRead(time.Millisecond)
	s.ObserveWrite(time.Millisecond)
	s.Fold(&Tally{})
	if (s.Tally() != Tally{}) {
		t.Fatal("nil Spans reports nonzero accounting")
	}
	if s.PhaseSnapshot() != nil {
		t.Fatal("nil Spans returns a snapshot")
	}
	if (s.IOSnapshot() != IOStat{}) {
		t.Fatal("nil Spans returns nonzero IO")
	}
}

// TestNilSpansZeroAllocs pins the acceptance criterion: with profiling
// disabled (nil *Spans) the hook methods allocate nothing, so the engine's
// per-pair path is untouched.
func TestNilSpansZeroAllocs(t *testing.T) {
	var s *Spans
	allocs := testing.AllocsPerRun(1000, func() {
		add(s, PhaseExpand, time.Microsecond)
		add(s, PhasePush, time.Microsecond)
		add(s, PhasePop, time.Microsecond)
		s.ObserveRead(time.Microsecond)
		s.ObserveWrite(time.Microsecond)
		_ = s.Tally()
		s.Fold(&Tally{})
	})
	if allocs != 0 {
		t.Fatalf("nil Spans hooks allocate %v per run, want 0", allocs)
	}
}

// TestEnabledSpansZeroAllocs pins the hooks of an ENABLED Spans too: the
// accounting is one fixed-size tally behind a mutex, so recording and
// folding must not allocate either (phase snapshots may).
func TestEnabledSpansZeroAllocs(t *testing.T) {
	s := &Spans{}
	var d Tally
	d.NS[PhasePop], d.Counts[PhasePop] = 10, 1
	allocs := testing.AllocsPerRun(1000, func() {
		add(s, PhaseExpand, time.Microsecond)
		s.ObserveRead(time.Microsecond)
		s.Fold(&d)
		_ = s.Tally()
	})
	if allocs != 0 {
		t.Fatalf("enabled Spans hooks allocate %v per run, want 0", allocs)
	}
}

func TestSpansAccounting(t *testing.T) {
	s := &Spans{}
	add(s, PhaseExpand, 5*time.Millisecond)
	add(s, PhaseExpand, 3*time.Millisecond)
	add(s, PhasePush, 2*time.Millisecond)
	add(s, PhaseSpill, time.Millisecond)
	add(s, PhaseMerge, 4*time.Millisecond)
	s.ObserveWrite(-time.Millisecond) // clock step: counts the op, no time
	got := s.Tally()
	if got.NS[PhaseExpand] != int64(8*time.Millisecond) || got.Counts[PhaseExpand] != 2 {
		t.Fatalf("expand = %d ns / %d spans", got.NS[PhaseExpand], got.Counts[PhaseExpand])
	}
	if got.IOWrites != 1 || got.IOWriteNS != 0 {
		t.Fatalf("negative duration: %d writes, %d ns", got.IOWrites, got.IOWriteNS)
	}
	if got.TotalNS() != int64(15*time.Millisecond) {
		t.Fatalf("total ns = %d", got.TotalNS())
	}

	// A second tally folds on top, and Since recovers exactly what it added.
	var more Tally
	more.NS[PhaseExpand], more.Counts[PhaseExpand] = int64(time.Millisecond), 1
	more.IOReadNS, more.IOReads = int64(time.Millisecond), 1
	s.Fold(&more)
	after := s.Tally()
	if after.NS[PhaseExpand] != int64(9*time.Millisecond) {
		t.Fatalf("folded expand ns = %d", after.NS[PhaseExpand])
	}
	if d := after.Since(&got); d != more {
		t.Fatalf("Since = %+v, want the folded tally %+v", d, more)
	}
	io := s.IOSnapshot()
	if io.Reads != 1 || io.ReadSeconds != 0.001 {
		t.Fatalf("merged io = %+v", io)
	}

	snap := s.PhaseSnapshot()
	byName := map[string]PhaseStat{}
	for _, ps := range snap {
		byName[ps.Phase] = ps
	}
	if byName["expand"].Count != 3 || byName["merge"].Seconds != 0.004 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, ok := byName["fetch"]; ok {
		t.Fatal("empty phase present in snapshot")
	}

}

func TestBuildPhasesCoverage(t *testing.T) {
	s := &Spans{}
	add(s, PhaseExpand, 60*time.Millisecond)
	add(s, PhaseEmit, 30*time.Millisecond)
	var p Profile
	p.BuildPhases(s, 0.1)
	if p.SchemaVersion != SchemaVersion {
		t.Fatalf("schema = %d", p.SchemaVersion)
	}
	if math.Abs(p.PhaseSeconds-0.09) > 1e-9 {
		t.Fatalf("phase seconds = %g", p.PhaseSeconds)
	}
	if math.Abs(p.Coverage-0.9) > 1e-9 {
		t.Fatalf("coverage = %g", p.Coverage)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelErr(110,100) = %g", got)
	}
	if got := RelErr(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("RelErr(90,100) = %g", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Fatalf("RelErr(0,0) = %g", got)
	}
	if got := RelErr(5, 0); got != math.MaxFloat64 {
		t.Fatalf("RelErr(5,0) = %g", got)
	}
	if got := RelErr(math.Inf(1), 2); got != math.MaxFloat64 {
		t.Fatalf("RelErr(inf,2) = %g", got)
	}
}

// sampleTrajectory builds a valid two-workload trajectory for tests.
func sampleTrajectory() *Trajectory {
	mk := func(name string, det bool, nodeIO, dist, maxq int64) WorkloadProfile {
		s := &Spans{}
		add(s, PhaseExpand, 50*time.Millisecond)
		add(s, PhaseEmit, 40*time.Millisecond)
		var p Profile
		p.BuildPhases(s, 0.1)
		p.Label = name
		p.Counters = Counters{
			DistCalcs:     dist,
			NodeReads:     nodeIO,
			NodeIO:        nodeIO,
			MaxQueueSize:  maxq,
			PairsReported: 100,
		}
		return WorkloadProfile{Name: name, Deterministic: det, Profile: p}
	}
	return &Trajectory{
		SchemaVersion: SchemaVersion,
		CreatedAt:     "2026-08-05T00:00:00Z",
		Tool:          "benchrun-test",
		Scale:         "smoke",
		Env:           CaptureEnv(),
		Workloads: []WorkloadProfile{
			mk("even-hybrid", true, 1000, 5000, 300),
			mk("parallel-2", false, 900, 4500, 250),
		},
	}
}

func TestTrajectoryRoundTripAndValidate(t *testing.T) {
	tr := sampleTrajectory()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != 2 || back.Workloads[0].Name != "even-hybrid" {
		t.Fatalf("round trip lost workloads: %+v", back.Workloads)
	}
	if back.Workloads[0].Profile.Counters.NodeIO != 1000 {
		t.Fatalf("round trip lost counters: %+v", back.Workloads[0].Profile.Counters)
	}
}

func TestTrajectoryValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trajectory)
		want   string
	}{
		{"schema", func(tr *Trajectory) { tr.SchemaVersion = 99 }, "schema version"},
		{"created", func(tr *Trajectory) { tr.CreatedAt = "" }, "created_at"},
		{"env", func(tr *Trajectory) { tr.Env.GoVersion = "" }, "env"},
		{"empty", func(tr *Trajectory) { tr.Workloads = nil }, "no workloads"},
		{"dup", func(tr *Trajectory) { tr.Workloads[1].Name = tr.Workloads[0].Name }, "duplicate"},
		{"wall", func(tr *Trajectory) { tr.Workloads[0].Profile.WallSeconds = 0 }, "wall time"},
		{"phases", func(tr *Trajectory) { tr.Workloads[0].Profile.Phases = nil }, "phase attribution"},
		{"pairs", func(tr *Trajectory) { tr.Workloads[0].Profile.Counters.PairsReported = 0 }, "no pairs"},
	}
	for _, tc := range cases {
		tr := sampleTrajectory()
		tc.mutate(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestCompareDetectsNodeIORegression(t *testing.T) {
	old := sampleTrajectory()
	cur := sampleTrajectory()
	// +10% node I/O on the deterministic workload must regress at the 5%
	// default threshold.
	cur.Workloads[0].Profile.Counters.NodeIO = 1100
	res := Compare(old, cur, CompareOptions{})
	if res.OK() {
		t.Fatalf("10%% node I/O growth not flagged: %+v", res)
	}
	found := false
	for _, r := range res.Regressions {
		if strings.Contains(r, "node_io") && strings.Contains(r, "even-hybrid") {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressions missing node_io: %v", res.Regressions)
	}
}

func TestCompareIgnoresNondeterministicAndWall(t *testing.T) {
	old := sampleTrajectory()
	cur := sampleTrajectory()
	// Nondeterministic workload counters may swing freely.
	cur.Workloads[1].Profile.Counters.NodeIO = 9000
	cur.Workloads[1].Profile.Counters.DistCalcs = 90000
	// Wall-clock regression on the gated workload warns but does not fail.
	cur.Workloads[0].Profile.WallSeconds = old.Workloads[0].Profile.WallSeconds * 3
	res := Compare(old, cur, CompareOptions{})
	if !res.OK() {
		t.Fatalf("unexpected regressions: %v", res.Regressions)
	}
	wallWarn := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "wall time") {
			wallWarn = true
		}
	}
	if !wallWarn {
		t.Fatalf("wall-clock regression not warned: %v", res.Warnings)
	}
}

func TestCompareSmallCountersSlack(t *testing.T) {
	old := sampleTrajectory()
	cur := sampleTrajectory()
	// An integer wiggle of <= 2 ops on a tiny counter is noise, not a
	// regression, even when it exceeds the relative threshold.
	old.Workloads[0].Profile.Counters.MaxQueueSize = 10
	cur.Workloads[0].Profile.Counters.MaxQueueSize = 12
	res := Compare(old, cur, CompareOptions{})
	if !res.OK() {
		t.Fatalf("small-counter slack not applied: %v", res.Regressions)
	}
}

func TestCompareImprovementNoted(t *testing.T) {
	old := sampleTrajectory()
	cur := sampleTrajectory()
	cur.Workloads[0].Profile.Counters.DistCalcs = 4000
	res := Compare(old, cur, CompareOptions{})
	if !res.OK() {
		t.Fatalf("improvement flagged as regression: %v", res.Regressions)
	}
	noted := false
	for _, n := range res.Notes {
		if strings.Contains(n, "improved") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("improvement not noted: %v", res.Notes)
	}
}

func TestCompareDisjointWorkloadsRegress(t *testing.T) {
	old := sampleTrajectory()
	cur := sampleTrajectory()
	cur.Workloads[0].Name = "renamed-a"
	cur.Workloads[1].Name = "renamed-b"
	res := Compare(old, cur, CompareOptions{})
	if res.OK() {
		t.Fatal("disjoint workload sets compared OK")
	}
}

func TestCaptureEnv(t *testing.T) {
	e := CaptureEnv()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.GOMAXPROCS <= 0 || e.NumCPU <= 0 {
		t.Fatalf("incomplete env: %+v", e)
	}
}
