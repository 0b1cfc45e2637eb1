package profile

import (
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
	s.Fold(&Tally{})
	if (s.Tally() != Tally{}) {
		t.Fatal("nil Spans reports nonzero accounting")
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
		_ = s.Tally()
		s.Fold(&Tally{})
	})
	if allocs != 0 {
		t.Fatalf("nil Spans hooks allocate %v per run, want 0", allocs)
	}
}

// TestEnabledSpansZeroAllocs pins the hooks of an ENABLED Spans too: the
// accounting is one fixed-size tally behind a mutex, so recording and
// folding must not allocate either.
func TestEnabledSpansZeroAllocs(t *testing.T) {
	s := &Spans{}
	var d Tally
	d.NS[PhasePop], d.Counts[PhasePop] = 10, 1
	allocs := testing.AllocsPerRun(1000, func() {
		add(s, PhaseExpand, time.Microsecond)
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
	add(s, PhaseEmit, 4*time.Millisecond)
	s.Fold(&Tally{IOWrites: 1})
	got := s.Tally()
	if got.NS[PhaseExpand] != int64(8*time.Millisecond) || got.Counts[PhaseExpand] != 2 {
		t.Fatalf("expand = %d ns / %d spans", got.NS[PhaseExpand], got.Counts[PhaseExpand])
	}
	if got.IOWrites != 1 || got.IOWriteNS != 0 {
		t.Fatalf("io = %d writes, %d ns", got.IOWrites, got.IOWriteNS)
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
	if after.Counts[PhaseExpand] != 3 || after.NS[PhaseEmit] != int64(4*time.Millisecond) || after.Counts[PhaseFetch] != 0 {
		t.Fatalf("tally = %+v", after)
	}
	if PhaseExpand.String() != "expand" || Phase(NumPhases).String() != "unknown" {
		t.Fatalf("phase names: %q, %q", PhaseExpand, Phase(NumPhases))
	}
}
