package main

import (
	"time"

	"distjoin"
	"distjoin/internal/pager"
	"distjoin/internal/spatial"
)

// span names one layer boundary the benchmark times from outside. The
// in-process boundaries nest as
//
//	query → distjoin.open | distjoin.next | distjoin.close
//	distjoin.* → spatial.node | pqueue.store.read | pqueue.store.write
//
// and a served session's client-side spans all hang off query.
type span int

const (
	spQuery span = iota
	spOpen
	spNext
	spClose
	spNode
	spStoreRead
	spStoreWrite
	spCreate
	spFirstPull
	spPull
	spDelete
	numSpans
)

var spanNames = [numSpans]string{
	spQuery:      "query",
	spOpen:       "distjoin.open",
	spNext:       "distjoin.next",
	spClose:      "distjoin.close",
	spNode:       "spatial.node",
	spStoreRead:  "pqueue.store.read",
	spStoreWrite: "pqueue.store.write",
	spCreate:     "server.create",
	spFirstPull:  "server.first_pull",
	spPull:       "server.pull",
	spDelete:     "server.delete",
}

// spanStat aggregates every span of one name under one parent within one
// trace: one record per call would be some 20,000 records per repetition.
type spanStat struct {
	Count int64
	Busy  time.Duration
}

// spanTable holds the aggregated spans of one trace (one repetition or one
// served session), indexed [name][parent].
type spanTable [numSpans][numSpans]spanStat

func (t *spanTable) add(name, parent span, d time.Duration, calls int64) {
	s := &t[name][parent]
	s.Count += calls
	s.Busy += d
}

// busy returns the total time and call count of a span name under any
// parent.
func (t *spanTable) busy(name span) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for parent := range t[name] {
		d += t[name][parent].Busy
		n += t[name][parent].Count
	}
	return d, n
}

// self returns a span's busy time minus the part its child spans cover.
func (t *spanTable) self(name span) time.Duration {
	d, _ := t.busy(name)
	for child := range t {
		d -= t[child][name].Busy
	}
	return d
}

func (t *spanTable) merge(o *spanTable) {
	for name := range t {
		for parent := range t[name] {
			t[name][parent].Count += o[name][parent].Count
			t[name][parent].Busy += o[name][parent].Busy
		}
	}
}

// spanRecord is one row of a written trace.
type spanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Count  int64  `json:"count"`
	BusyNS int64  `json:"busy_ns"`
}

// traceRecord is one trace as written to out/trace-<workload>.json.
type traceRecord struct {
	ID    string       `json:"trace_id"`
	Spans []spanRecord `json:"spans"`
}

func (t *spanTable) record(id string) traceRecord {
	rec := traceRecord{ID: id}
	for name := range t {
		for parent := range t[name] {
			s := t[name][parent]
			if s.Count == 0 {
				continue
			}
			r := spanRecord{Name: spanNames[name], Count: s.Count, BusyNS: int64(s.Busy)}
			if span(name) != spQuery {
				r.Parent = spanNames[parent]
			}
			rec.Spans = append(rec.Spans, r)
		}
	}
	return rec
}

// tracer collects the spans of the trace being recorded. The in-process
// engine is single-threaded under one caller, so the span a wrapper's call
// belongs under is whichever engine call the runner has marked as current.
// A nil *tracer records nothing.
type tracer struct {
	cur    spanTable
	parent span
}

func (t *tracer) add(name span, d time.Duration) {
	if t != nil {
		t.cur.add(name, t.parent, d, 1)
	}
}

// enter marks name as the span the wrappers' calls nest under.
func (t *tracer) enter(name span) {
	if t != nil {
		t.parent = name
	}
}

// finish closes the current trace and returns its spans.
func (t *tracer) finish() spanTable {
	out := t.cur
	t.cur = spanTable{}
	return out
}

// tracedIndex times the engine's calls into the spatial layer. It forwards
// MaxFanout so the engine sizes its scratch exactly as it does unwrapped.
type tracedIndex struct {
	inner distjoin.SpatialIndex
	tr    *tracer
}

var _ spatial.Fanout = tracedIndex{}

func (ix tracedIndex) Dims() int                     { return ix.inner.Dims() }
func (ix tracedIndex) NumObjects() int               { return ix.inner.NumObjects() }
func (ix tracedIndex) MinObjectsUnder(level int) int { return ix.inner.MinObjectsUnder(level) }

func (ix tracedIndex) MaxFanout() int {
	if f, ok := ix.inner.(spatial.Fanout); ok {
		return f.MaxFanout()
	}
	return 0
}

func (ix tracedIndex) Root() (spatial.NodeRef, error) {
	start := time.Now()
	ref, err := ix.inner.Root()
	ix.tr.add(spNode, time.Since(start))
	return ref, err
}

func (ix tracedIndex) Node(ref uint64) (*spatial.IndexNode, error) {
	start := time.Now()
	n, err := ix.inner.Node(ref)
	ix.tr.add(spNode, time.Since(start))
	return n, err
}

// tracedStore times the hybrid queue's disk tier. It is injected through
// Options.QueueStore around the same file store the untraced run gets from
// Options.HybridDir.
type tracedStore struct {
	inner pager.Store
	tr    *tracer
}

func (s tracedStore) PageSize() int                   { return s.inner.PageSize() }
func (s tracedStore) Allocate() (pager.PageID, error) { return s.inner.Allocate() }
func (s tracedStore) Free(id pager.PageID) error      { return s.inner.Free(id) }
func (s tracedStore) NumAllocated() int               { return s.inner.NumAllocated() }
func (s tracedStore) Close() error                    { return s.inner.Close() }

func (s tracedStore) ReadPage(id pager.PageID, buf []byte) error {
	start := time.Now()
	err := s.inner.ReadPage(id, buf)
	s.tr.add(spStoreRead, time.Since(start))
	return err
}

func (s tracedStore) WritePage(id pager.PageID, buf []byte) error {
	start := time.Now()
	err := s.inner.WritePage(id, buf)
	s.tr.add(spStoreWrite, time.Since(start))
	return err
}

// fileStoreFactory is the Options.QueueStore the traced hybrid run uses: the
// file store Options.HybridDir would create, inside a timing wrapper.
func fileStoreFactory(dir string, tr *tracer) func(pageSize int) (pager.Store, error) {
	return func(pageSize int) (pager.Store, error) {
		fs, err := pager.NewFileStore(dir, pageSize)
		if err != nil {
			return nil, err
		}
		return tracedStore{inner: fs, tr: tr}, nil
	}
}
