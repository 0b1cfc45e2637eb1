package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"distjoin"
	"distjoin/internal/qtrace"
)

// The cursor lifecycle rests on one ownership rule:
//
//	The engine is touched only by the holder of the cursor's lease.
//	Everyone else may only cancel its context and name a reason.
//
// A pull (next or stream) takes the lease — there is one, so a second pull
// answers 409 instead of queueing behind an unbounded drain — draws pairs,
// and hands the lease back with what it found (release): exhaustion and
// engine errors, a recovered panic included, end the engine there. DELETE,
// the TTL sweep and Close evict through retire: it hard-cancels the engine
// context with the cause, and then either closes the engine and tombstones
// the id at once (no lease out) or leaves exactly that to the holder's
// release (a live pull surfaces ErrCanceled within one engine step, so
// nobody waits a stream out). Drain and the wall budget only cancel: the
// cursor keeps its slot and the next Next call, live or future, fails it
// in place with the cause. One mutex per cursor guards the bookkeeping;
// the engine itself needs none, the lease is its lock.

// cursorState is where a cursor is in its life.
//
//	open ──release──▶ done     iterator exhausted, engine closed
//	open ──release──▶ failed   engine error or panic, engine closed, error latched
//	any  ──retire───▶ gone     engine closed, slot freed, id tombstoned
//
// done and failed cursors keep their table slot so clients can observe the
// terminal state (done → {"done":true}, failed → 410 with the original
// error) until the TTL or a DELETE reclaims it. The engine is closed the
// moment the cursor leaves open, which is also when its query trace lands
// in the flight recorder.
type cursorState int

const (
	cursorOpen cursorState = iota
	cursorDone
	cursorFailed
	cursorGone
)

func (s cursorState) String() string {
	return [...]string{"open", "done", "failed", "gone"}[s]
}

// errCursorBusy marks a pull on a cursor whose lease is out.
var errCursorBusy = errors.New("server: cursor is busy serving another request")

// Cancellation causes: each hard cancel of a cursor's engine context names
// why, and the cause rides the surfaced ErrCanceled (context.Cause) into
// the cursor's terminal error, its 410 body and its query trace. The three
// that evict are also the tombstone reasons.
var (
	errCursorDeleted  = errors.New("cursor deleted by client")
	errCursorExpired  = errors.New("cursor expired (TTL)")
	errCursorDrained  = errors.New("server shutting down")
	errCursorWallOver = errors.New("cursor wall budget exceeded")
)

// cursor is one resumable incremental-join cursor: a live engine iterator
// plus the bookkeeping that lets it survive client pauses.
type cursor struct {
	id      string
	kind    string
	index1  string
	index2  string
	created time.Time

	// sc is the query span's W3C context (minted by PreBegin at creation),
	// which every response about the cursor echoes; tracer is the one the
	// engine reports to (nil: untraced).
	sc     qtrace.SpanContext
	tracer *qtrace.Tracer

	// The engine. The iterator it belongs to the lease holder — or, while
	// no lease is out, to whoever holds mu — and is nil once closed.
	// cancel hard-cancels the engine's Options.Context with a cause (the
	// first one sticks) and stops the wall-budget timer; anyone may call
	// it, any number of times.
	it     *distjoin.Join
	cancel func(cause error)

	// gone is closed once the cursor has left the table, its engine closed;
	// closeErr is final by then.
	gone chan struct{}

	mu       sync.Mutex
	state    cursorState
	err      error  // terminal engine error (state failed, or gone after one)
	closeErr error  // what closing the engine returned
	leased   bool   // a pull holds the engine
	retiring string // tombstone reason named by retire; eviction follows the lease
	deadline time.Time
	reported int64
	// The pull tally the query trace gets when the engine closes: leases
	// taken and their summed time from lease to release.
	leasedAt time.Time
	pulls    int64
	pullTime time.Duration
}

// pullResult is what one pull found, and the cursor's books after it.
type pullResult struct {
	n         int64  // pairs delivered
	done      bool   // the iterator is exhausted
	truncated string // soft stop reason: the pull ended short of k, cursor still open
	err       error  // terminal engine error

	reported int64
	expires  time.Time
}

// lease admits one pull: an in-flight slot, then the cursor's lease. On
// success the caller owns the engine until release.
func (s *Server) lease(id string) (*cursor, *httpError) {
	if e := s.acquire(); e != nil {
		return nil, e
	}
	c, e := s.table.lookup(id)
	if e == nil {
		c.mu.Lock()
		switch {
		case c.leased:
			e = &httpError{Status: http.StatusConflict, Msg: errCursorBusy.Error(), Retry: true}
		case c.state == cursorFailed:
			e = &httpError{Status: http.StatusGone, Msg: "cursor " + id + " failed: " + c.err.Error()}
		case c.state == cursorGone: // evicted between lookup and here
			e = goneError(id, c.retiring)
		default:
			c.leased, c.leasedAt = true, s.now()
			// Renewed at both ends of a pull, so a long stream is not
			// expired under the janitor more often than necessary.
			c.deadline = c.leasedAt.Add(s.cfg.TTL)
		}
		c.mu.Unlock()
	}
	if e != nil {
		<-s.inflight
		return nil, e
	}
	return c, nil
}

// release hands the lease back with what the pull found, and does what had
// to wait for it: an exhausted or failed engine is closed, and a retire
// that arrived mid-pull is carried out.
func (s *Server) release(c *cursor, res *pullResult) {
	c.mu.Lock()
	now := s.now()
	c.leased = false
	c.pulls++
	c.pullTime += now.Sub(c.leasedAt)
	c.reported += res.n
	c.deadline = now.Add(s.cfg.TTL)
	res.reported, res.expires = c.reported, c.deadline
	if c.state == cursorOpen && (res.done || res.err != nil) {
		c.end(res.err)
	}
	if c.retiring != "" {
		s.evict(c)
	}
	c.mu.Unlock()
	<-s.inflight
}

// retire evicts a cursor for the named cause (DELETE, TTL, Close): the
// engine context is hard-canceled — a live pull surfaces ErrCanceled
// carrying the cause — and the cursor leaves the table, tombstoned with the
// cause, as soon as nobody holds its engine: now, or in the holder's
// release. Callers that must know it happened wait on c.gone.
func (s *Server) retire(c *cursor, cause error) {
	c.cancel(cause)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retiring == "" {
		c.retiring = cause.Error()
	}
	if !c.leased {
		s.evict(c)
	}
}

// evict takes a retiring cursor out of the table. Callers hold c.mu and no
// lease is out.
func (s *Server) evict(c *cursor) {
	if c.state == cursorGone {
		return
	}
	if c.state == cursorOpen {
		// An eviction the engine never noticed is not a failure of the
		// query: its trace lands clean.
		c.end(nil)
	}
	c.state = cursorGone
	s.table.remove(c.id, c.retiring)
	close(c.gone)
}

// end closes the engine — the one place that happens — and latches the
// terminal state: failed with err, done without. Callers hold c.mu, no
// lease is out, and the cursor is open.
func (c *cursor) end(err error) {
	c.state, c.err = cursorDone, err
	if err != nil {
		c.state = cursorFailed
	}
	// The trace lands as the engine closes, with the pulls so far.
	c.tracer.PreFinish(c.id, c.pulls, c.pullTime)
	// Abort annotates the query trace with err even when the engine never
	// saw it (a recovered panic); the engine's own latched error wins.
	c.closeErr = c.it.Abort(err)
	c.it = nil
	// The engine is gone; release the context tree and the wall timer.
	c.cancel(nil)
}

// draw pulls up to k pairs from the leased cursor's engine into emit. rctx
// is the pull's soft deadline (request context + timeout): when it ends the
// pull stops between Next calls with a truncation reason and the cursor
// stays open and resumable.
func draw(c *cursor, k int, rctx context.Context, emit func(PairJSON), res *pullResult) {
	if c.it == nil {
		// Exhausted on an earlier pull; the cursor idles in its done state
		// until the TTL or a DELETE reclaims it.
		res.done = true
		return
	}
	for res.n < int64(k) {
		if rctx.Err() != nil {
			res.truncated = softStopReason(rctx)
			return
		}
		p, ok, err := c.it.Next()
		if err != nil || !ok {
			res.done, res.err = err == nil, err
			return
		}
		emit(PairJSON{Obj1: uint64(p.Obj1), Obj2: uint64(p.Obj2), Dist: p.Dist})
		res.n++
	}
}

// softStopReason names why a pull stopped early. Soft stops never touch the
// cursor's engine context — only the one HTTP response is cut short.
func softStopReason(rctx context.Context) string {
	if errors.Is(rctx.Err(), context.DeadlineExceeded) {
		return "pull timeout"
	}
	return "client disconnected"
}

// janitor periodically evicts cursors whose TTL has lapsed.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(max(s.cfg.TTL/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sweep(s.now())
		}
	}
}

// sweep retires every cursor past its idle deadline.
func (s *Server) sweep(now time.Time) {
	for _, c := range s.table.snapshot() {
		c.mu.Lock()
		expired := now.After(c.deadline)
		c.mu.Unlock()
		if expired {
			s.retire(c, errCursorExpired)
		}
	}
}

// maxTombstones bounds the eviction memory; old tombstones age out FIFO and
// their cursors then report 404 like any unknown id.
const maxTombstones = 1024

// cursorTable is the bounded cursor table: at most max slots, live or
// reserved, plus a tombstone ring so a late client gets 410 Gone with the
// reason instead of an indistinguishable 404. Its lock is also where the
// server stops taking work: a slot is reserved, and refused, under the same
// lock drain and Close flip.
type cursorTable struct {
	mu       sync.Mutex
	cursors  map[string]*cursor
	reserved int  // slots promised to creates still opening their engine
	refusing bool // draining or closed: no new slots
	tombs    map[string]string
	tombQ    []string
	max      int
}

func newCursorTable(max int) *cursorTable {
	return &cursorTable{
		cursors: make(map[string]*cursor),
		tombs:   make(map[string]string),
		max:     max,
	}
}

// errRefusing answers a create once the server is draining or closed.
var errRefusing = &httpError{Status: http.StatusServiceUnavailable, Msg: "server is shutting down"}

// reserve promises one slot to a create, before it opens anything: 503 once
// the server is draining or closed, 429 when the table is full.
func (t *cursorTable) reserve() *httpError {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refusing {
		return errRefusing
	}
	if len(t.cursors)+t.reserved >= t.max {
		return &httpError{
			Status: http.StatusTooManyRequests,
			Msg:    "cursor table is full (" + strconv.Itoa(t.max) + " cursors); retry after a cursor closes or expires",
			Retry:  true,
		}
	}
	t.reserved++
	return nil
}

// publish turns a reservation into c's slot, or just gives it back when c
// is nil. It reports false, without inserting, when the server stopped
// taking work while the engine was opening: no sweep, drain or Close will
// ever see that cursor, so its creator must end it.
func (t *cursorTable) publish(c *cursor) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserved--
	if c == nil || t.refusing {
		return false
	}
	t.cursors[c.id] = c
	return true
}

// refuse stops admission and returns the cursors that made it in.
func (t *cursorTable) refuse() []*cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refusing = true
	return t.live()
}

// lookup finds a live cursor, distinguishing evicted (410 + reason) from
// never-existed (404).
func (t *cursorTable) lookup(id string) (*cursor, *httpError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.cursors[id]; ok {
		return c, nil
	}
	if reason, ok := t.tombs[id]; ok {
		return nil, goneError(id, reason)
	}
	return nil, &httpError{Status: http.StatusNotFound, Msg: "no such cursor: " + id}
}

func goneError(id, reason string) *httpError {
	return &httpError{Status: http.StatusGone, Msg: "cursor " + id + " is gone: " + reason}
}

// remove drops a cursor from the table and tombstones it.
func (t *cursorTable) remove(id, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cursors[id]; !ok {
		return
	}
	delete(t.cursors, id)
	if len(t.tombQ) >= maxTombstones {
		delete(t.tombs, t.tombQ[0])
		t.tombQ = t.tombQ[1:]
	}
	t.tombs[id] = reason
	t.tombQ = append(t.tombQ, id)
}

// snapshot returns the live cursors, for sweep.
func (t *cursorTable) snapshot() []*cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live()
}

func (t *cursorTable) live() []*cursor {
	out := make([]*cursor, 0, len(t.cursors))
	for _, c := range t.cursors {
		out = append(out, c)
	}
	return out
}

// load returns the number of live cursors and whether admission has stopped.
func (t *cursorTable) load() (open int, refusing bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cursors), t.refusing
}
