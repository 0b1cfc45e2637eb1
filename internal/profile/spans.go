// Package profile provides span accounting: the phases a join's wall time
// is attributed to (node expansion, queue push/pop, disk-tier spill/fetch,
// result emission), the plain Tally one engine's meter
// accumulates, and Spans, the shared view tallies fold into
// (Options.Profile). The per-query document built from a run's tallies is
// internal/qtrace's QueryTrace.
//
// The package deliberately depends on the standard library only. It follows
// the repository's nil-safety convention: a nil *Spans is valid everywhere,
// records nothing, and allocates nothing (pinned by a testing.AllocsPerRun
// test, like the internal/stats counters and the internal/obs recorder).
package profile

import (
	"sync"
	"time"
	"unsafe"
)

// Phase identifies one engine phase of the incremental distance join. The
// phases partition the per-pair work of Figure 3's loop: Expand is node-pair
// processing (child enumeration, distance computation, pruning), Push and
// Pop are the priority-queue operations, Spill and Fetch are the hybrid
// queue's disk-tier traffic (§3.2), and Emit is the residual per-result
// work: dequeue-side filtering, report bookkeeping, and iterator overhead.
type Phase uint8

const (
	// PhaseExpand is node-pair expansion, excluding nested queue inserts.
	PhaseExpand Phase = iota
	// PhasePush is priority-queue insertion, excluding nested disk spills.
	PhasePush
	// PhasePop is priority-queue removal and the dequeue-time checks up to
	// the expansion or report that follows, excluding nested disk fetches.
	PhasePop
	// PhaseSpill is the hybrid queue writing pairs to its disk tier.
	PhaseSpill
	// PhaseFetch is the hybrid queue loading disk buckets back into memory.
	PhaseFetch
	// PhaseEmit is reporting a result: from the report of the pair that
	// leaves the engine to the end of its next() call, publishing included.
	PhaseEmit

	// NumPhases is the number of phases; Phase values are < NumPhases.
	NumPhases = int(PhaseEmit) + 1
)

var phaseNames = [NumPhases]string{
	PhaseExpand: "expand",
	PhasePush:   "push",
	PhasePop:    "pop",
	PhaseSpill:  "spill",
	PhaseFetch:  "fetch",
	PhaseEmit:   "emit",
}

// String returns the phase's JSON name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Tally is the plain, unsynchronized form of a span account: per-phase
// exclusive nanoseconds and operation counts, plus the physical disk-tier
// I/O nested inside the phases. It is what one single-writer query meter
// accumulates (internal/meter) and what it hands the query's trace when the
// query closes (internal/qtrace); a Spans is the concurrency-safe view
// tallies fold into.
type Tally struct {
	NS     [NumPhases]int64
	Counts [NumPhases]int64

	IOReadNS, IOWriteNS int64
	IOReads, IOWrites   int64
}

// words views the tally — nothing but additive int64s — as an array.
func (t *Tally) words() *[unsafe.Sizeof(Tally{}) / 8]int64 {
	return (*[unsafe.Sizeof(Tally{}) / 8]int64)(unsafe.Pointer(t))
}

// Since returns the growth of t over prev.
func (t *Tally) Since(prev *Tally) Tally {
	d := *t
	for i, v := range prev.words() {
		d.words()[i] -= v
	}
	return d
}

// TotalNS returns the nanoseconds summed over all phases.
func (t Tally) TotalNS() int64 {
	var sum int64
	for _, ns := range t.NS {
		sum += ns
	}
	return sum
}

// Spans is the shared view of span accounting: per-phase wall time and
// operation counts behind a mutex. The engine never writes a Spans on its
// per-pair path — it records into its own meter's Tally, where the phases
// are exclusive by construction, and folds the growth into the caller's
// Spans once per Next return, so the lock is taken per fold, not per
// operation.
//
// Physical disk-tier I/O time is nested inside whatever phase triggered the
// I/O, so it is reported as an "of which" figure, not summed with the
// phases.
type Spans struct {
	mu sync.Mutex
	t  Tally
}

// Fold adds a tally's worth of spans into s (all fields are additive): the
// publish step of a per-engine meter.
func (s *Spans) Fold(d *Tally) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i, v := range d.words() {
		s.t.words()[i] += v
	}
	s.mu.Unlock()
}

// Tally returns a copy of the accumulated spans (the zero Tally for nil):
// per-phase times and counts are read from it.
func (s *Spans) Tally() Tally {
	if s == nil {
		return Tally{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t
}

// IOStat is the JSON summary of the physical disk-tier I/O nested inside
// the phases ("of which" time, not additive with them).
type IOStat struct {
	ReadSeconds  float64 `json:"read_seconds"`
	WriteSeconds float64 `json:"write_seconds"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
}

// IOSnapshot returns the physical I/O summary.
func (s *Spans) IOSnapshot() IOStat { return s.Tally().IOStat() }

// IOStat returns the tally's physical I/O summary.
func (t Tally) IOStat() IOStat {
	return IOStat{
		ReadSeconds:  time.Duration(t.IOReadNS).Seconds(),
		WriteSeconds: time.Duration(t.IOWriteNS).Seconds(),
		Reads:        t.IOReads,
		Writes:       t.IOWrites,
	}
}
