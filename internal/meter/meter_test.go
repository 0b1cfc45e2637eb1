package meter

import (
	"testing"
	"time"

	"distjoin/internal/obs"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
)

// fakeClock replaces the meter's clock for one test: every read advances it
// by tick, and reads are counted.
func fakeClock(t *testing.T, tick time.Duration) (reads *int) {
	t.Helper()
	var n int
	var elapsed time.Duration
	t.Cleanup(SetClock(func(time.Time) time.Duration {
		n++
		elapsed += tick
		return elapsed
	}))
	return &n
}

// everyHook drives each hook an engine and its queue call during one step,
// in the engine's order: a pop (with a disk-tier fetch) hands over to an
// expansion, its children's push (with a spill) to the next pop, and that
// pop to the report.
func everyHook(m *Meter) {
	m.BeginStep(PhasePop)
	fetch := m.Begin(PhaseFetch)
	m.Fetch()
	m.PageRead(m.IOStart())
	m.End(fetch)
	m.Pop()
	m.Expand()
	m.Switch(PhaseExpand)
	m.DistCalc(true)
	m.DistCalc(false)
	m.Filter(1)
	m.BatchPruned(2)
	m.Switch(PhasePush)
	spill := m.Begin(PhaseSpill)
	m.Spill()
	m.PageWritten(m.IOStart())
	m.End(spill)
	m.Push(3, 3)
	m.Switch(PhasePop)
	m.Switch(PhasePop) // already there: no read
	m.Fault()
	m.Retry()
	m.Switch(PhaseEmit)
	m.Emit(2.5, 3)
	m.EndStep(PhaseEmit)
}

// TestNilSinksZeroAllocsZeroClockReads is the nil-sink pin: with every sink
// nil there is no meter, and every hook on the nil meter returns at once —
// zero allocations and zero clock reads on the per-pair path.
func TestNilSinksZeroAllocsZeroClockReads(t *testing.T) {
	reads := fakeClock(t, time.Microsecond)
	m := Begin(Sinks{QueryID: "ignored"}, "join")
	if m != nil {
		t.Fatalf("Begin with no sink = %v, want nil", m)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		everyHook(m)
		m.Canceled()
	})
	m.PlanDone()
	m.Close(nil)
	if allocs != 0 || *reads != 0 {
		t.Fatalf("nil meter: %v allocs per step, %d clock reads; want 0 and 0", allocs, *reads)
	}
}

// TestClockOnlyForTimingViews pins when the meter reads the clock: never
// with only Counters attached, twice per emitting step (the pop-to-emit
// stamps) with Obs, and once per phase change with Profile or Tracer.
func TestClockOnlyForTimingViews(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sinks Sinks
		want  int
	}{
		{"counters", Sinks{Counters: &Counters{}}, 0},
		{"obs", Sinks{Obs: obs.New(obs.Config{})}, 2},
		// step in, 2 brackets × (in + out), 2 page I/Os × (start + end),
		// 4 switches, step out.
		{"profile", Sinks{Profile: &Spans{}}, 14},
		{"tracer", Sinks{Tracer: qtrace.New(qtrace.Config{})}, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := Begin(tc.sinks, "join")
			reads := fakeClock(t, time.Microsecond)
			everyHook(m)
			if *reads != tc.want {
				t.Fatalf("%d clock reads in one step, want %d", *reads, tc.want)
			}
		})
	}
}

// TestPhasesAreExclusive drives nested brackets on a clock that advances
// 1µs per read: every read closes one slice of exactly one phase, so each
// phase's time is the number of switches out of it, nothing is counted
// twice, and the step's total is what the clock saw.
func TestPhasesAreExclusive(t *testing.T) {
	sp := &Spans{}
	c := &Counters{}
	m := Begin(Sinks{Counters: c, Profile: sp}, "join")
	fakeClock(t, time.Microsecond)
	everyHook(m)
	everyHook(m) // the second fold publishes the first step's last slice

	m.Close(nil)
	want := map[Phase]int64{
		// fetch and spill each hold one page I/O: two more reads inside.
		PhaseEmit: 1, PhasePop: 3, PhaseFetch: 3, PhaseExpand: 1, PhasePush: 2, PhaseSpill: 3,
	}
	var total int64
	for p := Phase(0); int(p) < profile.NumPhases; p++ {
		got := sp.Tally().NS[p] / int64(time.Microsecond)
		total += got
		if got != 2*want[p] {
			t.Errorf("phase %s = %dµs, want %d", p, got, 2*want[p])
		}
	}
	if total != 2*13 { // 14 reads per step bound 13 slices
		t.Errorf("phases sum to %dµs, want 26", total)
	}
	// The page I/Os are "of which" time: one slice each, inside their phase.
	if tl := sp.Tally(); tl.IOReadNS != 2000 || tl.IOWriteNS != 2000 || tl.IOReads != 2 || tl.IOWrites != 2 {
		t.Errorf("page I/O = %d reads in %dns, %d writes in %dns; want 2 in 2000 each",
			tl.IOReads, tl.IOReadNS, tl.IOWrites, tl.IOWriteNS)
	}
	// Span counts are the matching work counts; fetch and emit have their own.
	s := c.Snapshot()
	for p, n := range map[Phase]int64{
		PhasePop: s.QueuePops, PhasePush: s.QueueInserts, PhaseSpill: s.QueueDiskPairs,
		PhaseExpand: s.Expansions, PhaseFetch: 2, PhaseEmit: 2,
	} {
		if got := sp.Tally().Counts[p]; got != n || n != 2 {
			t.Errorf("phase %s span count = %d, want %d", p, got, n)
		}
	}
}

// TestCallerTimeIsNotTheQuerys pins what the trace does with the time
// between two Next calls: it is reported as caller_seconds, not as a phase
// (TestQueryTraceSequential pins that coverage leaves it out), and a bracket
// opened before the first step (queue seeding, inside the plan span) is not
// timed a second time.
func TestCallerTimeIsNotTheQuerys(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	m := Begin(Sinks{Tracer: tr}, "join")
	fakeClock(t, time.Microsecond)
	m.End(m.Begin(PhasePush)) // seeding: no clock read
	m.PlanDone()
	everyHook(m) // reads 1..14
	everyHook(m) // reads 15..28: the caller held the iterator from 14 to 15
	m.Close(nil)

	qt := tr.Traces()[0]
	if got := time.Duration(qt.CallerSeconds * 1e9).Round(time.Nanosecond); got != time.Microsecond {
		t.Errorf("caller time = %v, want the 1µs between the two steps", got)
	}
	if w := qt.Root.Find("worker"); time.Duration(w.Seconds*1e9).Round(time.Nanosecond) != 26*time.Microsecond {
		t.Errorf("worker span = %vs, want the 26µs of the two steps", w.Seconds)
	}
}

// TestFoldRule pins when views see a meter: after every step, and a
// cancellation at once.
func TestFoldRule(t *testing.T) {
	c := &Counters{}
	m := Begin(Sinks{Counters: c}, "join")

	everyHook(m)
	if got := c.Snapshot(); got.QueuePops != 1 || got.PairsReported != 1 || got.MaxQueueSize != 3 {
		t.Fatalf("after one step the view holds %+v", got)
	}
	m.Canceled()
	if got := c.Snapshot().Cancellations; got != 1 {
		t.Fatalf("cancellations = %d, want 1", got)
	}
}

func BenchmarkStep(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sinks Sinks
	}{
		{"counters", Sinks{Counters: &Counters{}}},
		{"all", Sinks{Counters: &Counters{}, Obs: obs.New(obs.Config{}), Profile: &Spans{}, Tracer: qtrace.New(qtrace.Config{})}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := Begin(tc.sinks, "bench")
			for i := 0; i < b.N; i++ {
				m.BeginStep(PhasePop)
				m.Pop()
				m.Push(3, 3)
				m.DistCalc(false)
				m.EndStep(PhaseEmit)
			}
		})
	}
}
