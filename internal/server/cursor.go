package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"distjoin"
	"distjoin/internal/qtrace"
)

// cursorState is the lifecycle of a server-side cursor.
//
//	open ──next──▶ open            pairs remain
//	open ──next──▶ done            iterator exhausted (engine closed)
//	open ──next──▶ failed          engine error (engine closed, error latched)
//	any  ──TTL───▶ evicted         removed from table, tombstoned
//	any  ──DELETE▶ (gone)          removed from table, tombstoned
//
// done and failed cursors keep their table slot (so clients can observe the
// terminal state: done → {"done":true}, failed → 410 with the original
// error) until the TTL or an explicit DELETE reclaims it; the underlying
// engine iterator is closed the moment the terminal state is entered, which
// is also when its query trace lands in the flight recorder.
type cursorState int

const (
	cursorOpen cursorState = iota
	cursorDone
	cursorFailed
)

// errCursorBusy marks a concurrent next on a cursor already serving one.
var errCursorBusy = errors.New("server: cursor is busy serving another request")

// Cancellation causes: each hard cancel of a cursor's engine context names
// why, and the cause rides the surfaced ErrCanceled (context.Cause) into
// the cursor's terminal error, its 410 body and its query trace.
var (
	errCursorDeleted  = errors.New("cursor deleted by client")
	errCursorExpired  = errors.New("cursor expired (TTL)")
	errCursorDrained  = errors.New("server shutting down")
	errCursorWallOver = errors.New("cursor wall budget exceeded")
)

// cursor is one resumable incremental-join cursor: a live engine iterator
// plus the bookkeeping that lets it survive client pauses.
//
// Two locks with distinct roles: op is held for the whole duration of a
// next/stream pull (acquired with TryLock, so a competing pull gets 409
// instead of queueing behind an unbounded drain), st guards the state
// fields and is only ever held briefly. Lock order is op then st; the
// janitor, which inspects st first, only ever TryLocks op and so cannot
// deadlock against that order.
type cursor struct {
	id      string
	kind    string
	index1  string
	index2  string
	queryID string
	budget  int64 // reserved queue-memory bytes, released on close
	created time.Time

	next  func() (distjoin.Pair, bool, error)
	close func() error
	abort func(error) error // close latching a terminal error the engine never saw

	// sc is the query span's W3C context (minted by PreBegin at creation);
	// client is the inbound traceparent that parented it, zero when the
	// create request carried none. Both are immutable after creation. pulls
	// numbers the pull spans of this cursor; it is only touched under op.
	sc     qtrace.SpanContext
	client qtrace.SpanContext
	pulls  int64

	// ctx is the engine's Options.Context: canceling it (cancel, with a
	// cause) interrupts a live pull mid-engine-work — the iterator
	// surfaces a sticky ErrCanceled and the cursor goes terminal. The
	// hard-cancel triggers are DELETE, TTL doom, the per-cursor wall
	// budget, and server drain; a mere client disconnect only stops the
	// pull loop (soft), keeping the cursor resumable. cancel is safe to
	// call multiple times and must be called on every terminal path so
	// the context tree (and any wall-budget timer) is released.
	ctx    context.Context
	cancel func(cause error)

	op sync.Mutex // held across one pull

	st       sync.Mutex // guards the fields below
	state    cursorState
	err      error // terminal engine error (state == cursorFailed)
	deadline time.Time
	doomed   bool // TTL fired mid-pull: evict when the pull releases op
	closed   bool // engine iterator has been closed
	reported int64
}

// closeEngine closes the underlying iterator exactly once. Callers hold st.
func (c *cursor) closeEngine() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	if c.abort != nil {
		// Latch the cursor's terminal error (nil on clean paths; the
		// engine's own latched error wins) so the query trace is
		// annotated even for failures the engine never saw, such as a
		// recovered panic.
		err = c.abort(c.err)
	} else {
		err = c.close()
	}
	// The engine is gone; release the context tree (no-op if the engine
	// was canceled through it, mandatory if it completed normally — the
	// wall-budget timer must not outlive the cursor).
	c.hardCancel(nil)
	return err
}

// hardCancel cancels the cursor's engine context with the given cause.
func (c *cursor) hardCancel(cause error) {
	if c.cancel != nil {
		c.cancel(cause)
	}
}

// tombstone records why an evicted cursor left the table, so a late client
// gets 410 Gone with the reason instead of an indistinguishable 404.
type tombstone struct {
	id     string
	reason string
}

// maxTombstones bounds the eviction memory; old tombstones age out FIFO and
// their cursors then report 404 like any unknown id.
const maxTombstones = 1024

// cursorTable is the bounded cursor table: at most max live cursors, TTL
// eviction by a janitor sweep, and a tombstone ring for Gone responses.
type cursorTable struct {
	mu      sync.Mutex
	cursors map[string]*cursor
	tombs   map[string]string
	tombQ   []string
	max     int
}

func newCursorTable(max int) *cursorTable {
	return &cursorTable{
		cursors: make(map[string]*cursor),
		tombs:   make(map[string]string),
		max:     max,
	}
}

// insert adds a cursor, enforcing the table bound. The httpError carries
// 429 when the table is full.
func (t *cursorTable) insert(c *cursor) *httpError {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cursors) >= t.max {
		return &httpError{
			Status: http.StatusTooManyRequests,
			Msg:    "cursor table is full (" + itoa(t.max) + " cursors); retry after a cursor closes or expires",
			Retry:  true,
		}
	}
	t.cursors[c.id] = c
	return nil
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
		return nil, &httpError{Status: http.StatusGone, Msg: "cursor " + id + " is gone: " + reason}
	}
	return nil, &httpError{Status: http.StatusNotFound, Msg: "no such cursor: " + id}
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

// snapshot returns the live cursors (for sweep and shutdown).
func (t *cursorTable) snapshot() []*cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*cursor, 0, len(t.cursors))
	for _, c := range t.cursors {
		out = append(out, c)
	}
	return out
}

// len returns the number of live cursors.
func (t *cursorTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cursors)
}

// itoa avoids strconv for the one message that needs it.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
