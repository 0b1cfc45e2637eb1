package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
)

// The cursor lifecycle, model-checked: seeded random schedules of every
// event a cursor can meet — create, next, stream, a second pull while one
// is running, DELETE idle and mid-pull, client disconnect, a pull deadline,
// TTL expiry idle and mid-pull, the wall budget, drain, Close, a create
// racing Close, an injected queue-store fault, a panic in the engine — run
// against a real Server over HTTP and against the small reference state
// machine below. After every step the two must agree on status code and
// body; the pairs a cursor hands out across all its pulls must be a prefix
// of a one-shot in-process run of the same query; and when the schedule
// ends everything the server took must be back: table slots, in-flight
// slots, tracer-active queries, queue stores, goroutines — with exactly
// one landed trace per admitted cursor, i.e. every engine closed once, and
// each trace counting the pulls that held its cursor's open engine.
//
// Mid-pull events are made deterministic by a gate inside the engine (an
// ExactDist hook that blocks one call) and by a clock only the test
// advances; the janitor never ticks on its own (see newModelServer).

var modelSeed = flag.Int64("model.seed", 0, "run only this lifecycle-model schedule (0 = all)")

const (
	modelTTL        = time.Hour
	modelWall       = 10 * time.Hour
	modelMaxCursors = 3
)

// ---- the reference state machine --------------------------------------

type mState int

const (
	mOpen     mState = iota // engine live
	mPoisoned               // engine live, context hard-canceled: the next pull fails it
	mDone                   // exhausted; slot kept
	mFailed                 // terminal error latched; slot kept
	mGone                   // evicted, tombstoned
)

type mCursor struct {
	id       string
	ref      []PairJSON // the one-shot result of the same query
	failAt   int        // pairs delivered before the injected store fault; -1: healthy
	pos      int        // pairs the server has handed out
	pulls    int        // pulls that leased the cursor while its engine was open
	state    mState
	why      string // what every 410 for this cursor must mention
	created  time.Time
	deadline time.Time

	// While a pull holds the cursor nobody else may touch its engine: a hard
	// cancel only names its cause (the first one wins, as with a context),
	// an eviction waits for the pull to hand the cursor back.
	leased   bool
	canceled string
	evicting string
}

type model struct {
	cursors  map[string]*mCursor
	now      time.Time
	refusing bool // draining or closed: creates answer 503
	closed   bool
}

func (m *model) live() (n int) {
	for _, c := range m.cursors {
		if c.state != mGone {
			n++
		}
	}
	return n
}

func (m *model) createStatus() int {
	switch {
	case m.refusing:
		return http.StatusServiceUnavailable
	case m.live() >= modelMaxCursors:
		return http.StatusTooManyRequests
	}
	return http.StatusCreated
}

// cancel hard-cancels c's engine context: an idle open cursor is poisoned,
// a leased one learns of it from its engine.
func (m *model) cancel(c *mCursor, why string) {
	if c.state != mOpen {
		return
	}
	if c.canceled == "" {
		c.canceled = why
	}
	if !c.leased {
		c.state, c.why = mPoisoned, c.canceled
	}
}

func (m *model) evict(c *mCursor, why string) {
	switch {
	case c.state == mGone:
	case c.leased:
		m.cancel(c, why)
		if c.evicting == "" {
			c.evicting = why
		}
	default:
		c.state, c.why = mGone, why
	}
}

// advance moves the clock; cursors past the wall budget are hard-canceled.
func (m *model) advance(d time.Duration) {
	m.now = m.now.Add(d)
	for _, c := range m.cursors {
		if !m.now.Before(c.created.Add(modelWall)) {
			m.cancel(c, "wall budget")
		}
	}
}

// sweep evicts every cursor past its idle deadline.
func (m *model) sweep() {
	for _, c := range m.cursors {
		if m.now.After(c.deadline) {
			m.evict(c, "expired (TTL)")
		}
	}
}

func (m *model) drain() {
	m.refusing = true
	for _, c := range m.cursors {
		m.cancel(c, "shutting down")
	}
}

func (m *model) close() {
	m.refusing, m.closed = true, true
	for _, c := range m.cursors {
		m.evict(c, "shutting down")
	}
}

// lease marks the start of a pull the schedule will hold mid-engine.
func (m *model) lease(c *mCursor) {
	c.leased, c.deadline = true, m.now.Add(modelTTL)
}

// pullObs is one pull's response, next or stream, in one shape.
type pullObs struct {
	status    int
	pairs     []PairJSON
	done      bool
	reported  int64
	truncated string
	errMsg    string
}

// event is what the schedule did to the pull itself while it ran (what it
// did to the cursor is in the cursor: canceled, evicting).
type event struct {
	soft   string // soft stop: the truncation reason
	panics bool   // the engine panicked under the pull
}

// pull checks one finished pull against the model and advances it. c is nil
// for an id the server never issued.
func (m *model) pull(c *mCursor, stream bool, k int, o pullObs, ev event) error {
	if c == nil {
		return want(o, http.StatusNotFound, "no such cursor")
	}
	switch c.state {
	case mGone, mFailed:
		return want(o, http.StatusGone, c.why)
	}
	c.deadline = m.now.Add(modelTTL) // lease and release both renew the idle deadline
	if c.state == mOpen || c.state == mPoisoned {
		c.pulls++ // the engine closes after this pull at the earliest
	}
	if c.state == mDone {
		return c.delivered(o, 0, true)
	}
	if c.state == mPoisoned {
		c.state = mFailed
		return c.failed(o, stream, 0, http.StatusGone, c.why)
	}

	n := min(k, len(c.ref)-c.pos)
	done := n < k // asked for more than exists: the engine saw the end
	natural := func() error {
		if c.failAt >= 0 && c.pos+k > c.failAt {
			c.state, c.why = mFailed, faultstore.ErrInjected.Error()
			return c.failed(o, stream, c.failAt-c.pos, http.StatusInternalServerError, c.why)
		}
		if done {
			c.state = mDone
		}
		return c.delivered(o, n, done)
	}
	var err error
	switch {
	case ev.panics:
		c.state, c.why = mFailed, "panic"
		err = want(o, http.StatusInternalServerError, "boom")
	case o.errMsg != "" && c.canceled != "":
		// The pull surfaced the hard cancel: the cursor failed in place.
		c.state, c.why = mFailed, c.canceled
		err = c.failed(o, stream, len(o.pairs), http.StatusGone, c.canceled)
	case ev.soft != "" && o.truncated != "":
		// Any proper prefix, cut for the named reason.
		if o.truncated != ev.soft || o.done || len(o.pairs) >= k {
			return fmt.Errorf("soft stop: truncated=%q done=%v with %d pairs, want %q", o.truncated, o.done, len(o.pairs), ev.soft)
		}
		err = c.delivered(o, len(o.pairs), false)
	default:
		// Undisturbed — or the disturbance came too late to matter.
		err = natural()
	}
	// The pull hands the cursor back; what was asked meanwhile happens now.
	c.leased = false
	if c.evicting != "" {
		m.evict(c, c.evicting)
	} else if c.canceled != "" {
		m.cancel(c, c.canceled)
	}
	return err
}

// delivered checks a successful pull of exactly n pairs and advances pos.
func (c *mCursor) delivered(o pullObs, n int, done bool) error {
	if o.status != http.StatusOK || o.errMsg != "" {
		return fmt.Errorf("status %d error %q, want 200", o.status, o.errMsg)
	}
	if len(o.pairs) != n || o.done != done {
		return fmt.Errorf("%d pairs done=%v, want %d pairs done=%v (pos %d of %d)", len(o.pairs), o.done, n, done, c.pos, len(c.ref))
	}
	for i, p := range o.pairs {
		if p != c.ref[c.pos+i] {
			return fmt.Errorf("pair %d = %+v, the one-shot run has %+v", c.pos+i, p, c.ref[c.pos+i])
		}
	}
	c.pos += n
	if o.reported != int64(c.pos) {
		return fmt.Errorf("reported %d after %d delivered pairs", o.reported, c.pos)
	}
	return nil
}

// failed checks a pull that ended in a terminal error after n pairs: next
// answers the status with nothing delivered, stream a 200 whose trailer
// carries the error after the n pairs already on the wire.
func (c *mCursor) failed(o pullObs, stream bool, n, status int, why string) error {
	if !stream {
		return want(o, status, why)
	}
	if !strings.Contains(o.errMsg, why) {
		return fmt.Errorf("stream trailer error %q, want it to mention %q", o.errMsg, why)
	}
	o.errMsg = ""
	return c.delivered(o, n, false)
}

func want(o pullObs, status int, why string) error {
	if o.status != status || !strings.Contains(o.errMsg, why) {
		return fmt.Errorf("status %d error %q, want %d mentioning %q", o.status, o.errMsg, status, why)
	}
	return nil
}

// ---- test doubles ------------------------------------------------------

// fakeClock is the server's clock and timer source: time moves only when
// the schedule says so, and a timer fires inside the Advance that reaches it.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Time
	f    func()
	done bool
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration, f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		was := !t.done
		t.done = true
		return was
	}
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []func()
	for _, t := range c.timers {
		if !t.done && !t.at.After(c.now) {
			t.done = true
			due = append(due, t.f)
		}
	}
	c.mu.Unlock()
	for _, f := range due {
		f()
	}
}

// engineHook sits in BaseOptions.ExactDist, i.e. inside engine work under a
// pull: armed, its next call blocks until released (holding the pull
// mid-engine) or panics.
type engineHook struct {
	mu       sync.Mutex
	mode     int // hookOff, hookBlock, hookPanic
	fired    bool
	hit      chan struct{} // closed when the armed call arrives
	open     chan struct{} // closed by release
	released bool
}

const (
	hookOff = iota
	hookBlock
	hookPanic
)

func (h *engineHook) arm(mode int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mode, h.fired, h.released = mode, false, false
	h.hit, h.open = make(chan struct{}), make(chan struct{})
}

// release disarms the hook and lets a blocked call go; it reports whether
// the hook fired since arm. Safe to call twice.
func (h *engineHook) release() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mode = hookOff
	if h.open != nil && !h.released {
		h.released = true
		close(h.open)
	}
	return h.fired
}

func (h *engineHook) call() {
	h.mu.Lock()
	mode := h.mode
	h.mode = hookOff
	if mode != hookOff {
		h.fired = true
	}
	hit, open := h.hit, h.open
	h.mu.Unlock()
	switch mode {
	case hookBlock:
		close(hit)
		<-open
	case hookPanic:
		panic("boom")
	}
}

// storeRig is the BaseOptions.QueueStore factory: it counts stores opened
// and closed, can make the next store fail its n-th write, and can hold one
// factory call — a create caught inside engine construction.
type storeRig struct {
	mu             sync.Mutex
	calls          int
	opened, closed int
	failWriteAt    int
	block          bool
	hit, open      chan struct{}
}

func (r *storeRig) factory(pageSize int) (pager.Store, error) {
	r.mu.Lock()
	r.calls++
	fail, block, hit, open := r.failWriteAt, r.block, r.hit, r.open
	r.failWriteAt, r.block = 0, false
	r.mu.Unlock()
	if block {
		close(hit)
		<-open
	}
	mem, err := pager.NewMemStore(pageSize)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.opened++
	r.mu.Unlock()
	return &countedStore{Store: faultstore.New(mem, faultstore.Config{Seed: 1, FailWriteAt: fail}), rig: r}, nil
}

// failNextAt makes the next store opened fail its n-th page write (0: healthy).
func (r *storeRig) failNextAt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failWriteAt = n
}

func (r *storeRig) counts() (calls, opened, closed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.opened, r.closed
}

type countedStore struct {
	pager.Store
	rig  *storeRig
	once sync.Once
}

func (s *countedStore) Close() error {
	s.once.Do(func() {
		s.rig.mu.Lock()
		s.rig.closed++
		s.rig.mu.Unlock()
	})
	return s.Store.Close()
}

// ---- the shared world --------------------------------------------------

var modelWorld struct {
	once         sync.Once
	a, b         []distjoin.Point
	water, roads *distjoin.Index
	refs         sync.Map // query key → *modelRef
}

type modelRef struct {
	pairs  []PairJSON
	failAt int
}

func modelIndexes() (a, b []distjoin.Point, water, roads *distjoin.Index) {
	w := &modelWorld
	w.once.Do(func() {
		w.a, w.b = datagen.Water(7, 40), datagen.Roads(8, 60)
		w.water, w.roads = distjoin.NewIndexFromPoints(w.a), distjoin.NewIndexFromPoints(w.b)
	})
	return w.a, w.b, w.water, w.roads
}

// modelOptions is the BaseOptions every model server (and every reference
// run) starts from: the gate in the engine, the counting store factory.
func modelOptions(hook *engineHook, stores *storeRig) distjoin.Options {
	a, b, _, _ := modelIndexes()
	return distjoin.Options{
		QueueStore: stores.factory,
		// Two pairs a page: the disk tier writes a page per full tail, so
		// with 4 KiB pages these small queries would never reach the write
		// the fault op arms.
		QueuePageSize: 256,
		ExactDist: func(o1, o2 distjoin.ObjID) (float64, error) {
			hook.call()
			p, q := a[o1], b[o2]
			return math.Hypot(p[0]-q[0], p[1]-q[1]), nil
		},
	}
}

// reference runs the request's query one-shot in-process, once healthy and
// — for a fault-armed store — once more to find how many pairs the engine
// delivers before the fault surfaces.
func reference(t *testing.T, req QueryRequest, failWriteAt int) *modelRef {
	key := fmt.Sprintf("%s/%s/%d/%d", req.Kind, req.Queue, req.MaxPairs, failWriteAt)
	if r, ok := modelWorld.refs.Load(key); ok {
		return r.(*modelRef)
	}
	_, _, water, roads := modelIndexes()
	run := func(fail int) ([]PairJSON, bool) {
		stores := &storeRig{failWriteAt: fail}
		opts := modelOptions(&engineHook{}, stores)
		opts.MaxPairs = req.MaxPairs
		if req.Queue == "hybrid" {
			opts.Queue, opts.HybridDT = distjoin.QueueHybrid, req.HybridDT
		}
		it, err := openIterator(&req, water.AsSpatialIndex(), roads.AsSpatialIndex(), opts)
		if err != nil {
			t.Fatalf("reference %s: %v", key, err)
		}
		defer it.Close()
		var out []PairJSON
		for {
			p, ok, err := it.Next()
			if err != nil {
				return out, true
			}
			if !ok {
				return out, false
			}
			out = append(out, PairJSON{Obj1: uint64(p.Obj1), Obj2: uint64(p.Obj2), Dist: p.Dist})
		}
	}
	ref := &modelRef{failAt: -1}
	var failed bool
	if ref.pairs, failed = run(0); failed {
		t.Fatalf("reference %s: healthy run failed", key)
	}
	if failWriteAt > 0 {
		if got, failed := run(failWriteAt); failed {
			ref.failAt = len(got)
		}
	}
	modelWorld.refs.Store(key, ref)
	return ref
}

// ---- the driver --------------------------------------------------------

type driver struct {
	t       *testing.T
	seed    int64
	rnd     *rand.Rand
	srv     *Server
	ts      *httptest.Server
	clk     *fakeClock
	hook    *engineHook
	stores  *storeRig
	tracer  *distjoin.QueryTracer
	m       *model
	ids     []string // every cursor the server admitted, oldest first
	step    int
	op      string
	maxInfl int
	orphans int // creates refused after their engine had opened: each lands one trace

	mu      sync.Mutex
	landed  map[string]int   // query id → completed traces
	pulls   map[string]int64 // query id → the last landed trace's pull count
	streams atomic.Value     // streamReq: the latest /stream request's context
}

type streamReq struct{ ctx context.Context }

func (d *driver) failf(format string, a ...any) {
	d.t.Helper()
	d.hook.release() // never leave a pull parked at the gate
	d.t.Fatalf("lifecycle model: seed %d step %d (%s): %s\n(rerun: go test -run TestCursorLifecycleModel -model.seed=%d ./internal/server)",
		d.seed, d.step, d.op, fmt.Sprintf(format, a...), d.seed)
}

func newDriver(t *testing.T, seed int64) *driver {
	_, _, water, roads := modelIndexes()
	d := &driver{
		t: t, seed: seed, rnd: rand.New(rand.NewSource(seed)),
		clk:    &fakeClock{now: time.Now()},
		hook:   &engineHook{},
		stores: &storeRig{},
		landed: map[string]int{},
		pulls:  map[string]int64{},
	}
	d.m = &model{cursors: map[string]*mCursor{}, now: d.clk.Now()}
	d.tracer = distjoin.NewQueryTracer(distjoin.QueryTraceConfig{
		FlightSize: 256,
		OnComplete: func(tr *distjoin.QueryTrace) {
			d.mu.Lock()
			d.landed[tr.ID]++
			d.pulls[tr.ID] = tr.Pulls
			d.mu.Unlock()
		},
	})
	reg := NewRegistry()
	if err := reg.RegisterIndex("water", water); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterIndex("roads", roads); err != nil {
		t.Fatal(err)
	}
	d.maxInfl = 1 + 3*d.rnd.Intn(2) // 1: the gated pull holds the only slot
	d.srv = newModelServer(Config{
		Registry:      reg,
		Tracer:        d.tracer,
		Obs:           distjoin.NewRecorder(distjoin.ObsConfig{}),
		MaxCursors:    modelMaxCursors,
		MaxInflight:   d.maxInfl,
		MaxBatch:      1000,
		TTL:           modelTTL,
		MaxCursorWall: modelWall,
		BaseOptions:   modelOptions(d.hook, d.stores),
	}, d.clk)
	d.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			d.streams.Store(streamReq{r.Context()})
		}
		d.srv.Handler().ServeHTTP(w, r)
	}))
	return d
}

// do performs one request to completion.
func (d *driver) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, rd)
	if err != nil {
		d.failf("%v", err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (d *driver) must(method, path string, body any) (int, []byte) {
	code, raw, err := d.do(context.Background(), method, path, body)
	if err != nil {
		d.failf("%s %s: %v", method, path, err)
	}
	return code, raw
}

// errMsg decodes the JSON error envelope every non-2xx response carries.
func (d *driver) errMsg(code int, raw []byte) string {
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" || eb.Status != code {
		d.failf("status %d without a matching JSON error envelope: %s", code, raw)
	}
	return eb.Error
}

// observe parses a pull response, next or stream, into one shape.
func (d *driver) observe(stream bool, code int, raw []byte) pullObs {
	o := pullObs{status: code}
	if code != http.StatusOK {
		o.errMsg = d.errMsg(code, raw)
		return o
	}
	if !stream {
		var nr NextResponse
		if err := json.Unmarshal(raw, &nr); err != nil {
			d.failf("next body: %v: %s", err, raw)
		}
		o.pairs, o.done, o.reported, o.truncated = nr.Pairs, nr.Done, nr.Reported, nr.Truncated
		return o
	}
	var tr *streamTrailer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Bytes()
		if tr != nil {
			d.failf("stream line after the trailer: %s", line)
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			tr = &streamTrailer{}
			if err := json.Unmarshal(line, tr); err != nil {
				d.failf("stream trailer: %v: %s", err, line)
			}
			continue
		}
		var p PairJSON
		if err := json.Unmarshal(line, &p); err != nil {
			d.failf("stream line: %v: %s", err, line)
		}
		o.pairs = append(o.pairs, p)
	}
	if tr == nil {
		d.failf("stream without a trailer: %s", raw)
	}
	o.done, o.reported, o.truncated, o.errMsg = tr.Done, tr.Reported, tr.Truncated, tr.Error
	return o
}

// pick chooses a pull/delete/info target: usually a cursor the server
// issued (live or long gone), now and then an id it never did.
func (d *driver) pick() (string, *mCursor) {
	if len(d.ids) == 0 || d.rnd.Intn(12) == 0 {
		return "c9999999", nil
	}
	id := d.ids[d.rnd.Intn(len(d.ids))]
	return id, d.m.cursors[id]
}

// pickOpen chooses a healthy open cursor with at least two pairs left, the
// kind a gated pull needs; nil when there is none.
func (d *driver) pickOpen() *mCursor {
	var open []*mCursor
	for _, id := range d.ids {
		if c := d.m.cursors[id]; c.state == mOpen && c.failAt < 0 && len(c.ref)-c.pos >= 2 {
			open = append(open, c)
		}
	}
	if len(open) == 0 {
		return nil
	}
	return open[d.rnd.Intn(len(open))]
}

func (d *driver) pullPath(id string, stream bool, k int) string {
	verb := "next"
	if stream {
		verb = "stream"
	}
	return fmt.Sprintf("/v1/cursor/%s/%s?k=%d", id, verb, k)
}

func (d *driver) checkPull(c *mCursor, stream bool, k int, o pullObs, ev event) {
	if err := d.m.pull(c, stream, k, o, ev); err != nil {
		d.failf("%v", err)
	}
}

func (d *driver) opCreate() {
	req := QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 12 + d.rnd.Intn(30)}
	if d.rnd.Intn(4) == 0 {
		req.Kind, req.MaxPairs = "semijoin", 0
	}
	failWriteAt := 0
	switch d.rnd.Intn(4) {
	case 0:
		req.Queue, req.HybridDT = "hybrid", 500
	case 1:
		req.Queue, req.HybridDT = "hybrid", 500
		failWriteAt = 2 + d.rnd.Intn(4)
	}
	status := d.m.createStatus()
	if status == http.StatusCreated && d.rnd.Intn(8) == 0 {
		// A request the server must turn down on its merits.
		bad, wantCode := req, http.StatusBadRequest
		if d.rnd.Intn(2) == 0 {
			bad.Index1, wantCode = "nowhere", http.StatusNotFound
		} else {
			bad.Kind = "cartesian"
		}
		if code, raw := d.must(http.MethodPost, "/v1/query", bad); code != wantCode {
			d.failf("bad create: %d: %s, want %d", code, raw, wantCode)
		}
		return
	}
	ref := reference(d.t, req, failWriteAt)
	calls, _, _ := d.stores.counts()
	d.stores.failNextAt(failWriteAt)
	code, raw := d.must(http.MethodPost, "/v1/query", req)
	if code != status {
		d.failf("create: %d: %s, want %d", code, raw, status)
	}
	if code != http.StatusCreated {
		d.errMsg(code, raw)
		d.stores.failNextAt(0)
		if now, _, _ := d.stores.counts(); now != calls {
			d.failf("refused create (%d) opened %d queue stores: admission must come before engine work", code, now-calls)
		}
		return
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil || cr.Cursor == "" || cr.QueryID != cr.Cursor {
		d.failf("create body: %v: %s", err, raw)
	}
	if failWriteAt > 0 {
		modelArmed.cursors++
		if ref.failAt >= 0 {
			modelArmed.faulting++
		}
	}
	d.ids = append(d.ids, cr.Cursor)
	d.m.cursors[cr.Cursor] = &mCursor{
		id: cr.Cursor, ref: ref.pairs, failAt: ref.failAt,
		created: d.m.now, deadline: d.m.now.Add(modelTTL),
	}
}

func (d *driver) opPull() {
	id, c := d.pick()
	stream, k := d.rnd.Intn(2) == 0, 1+d.rnd.Intn(16)
	code, raw := d.must(http.MethodGet, d.pullPath(id, stream, k), nil)
	d.checkPull(c, stream, k, d.observe(stream, code, raw), event{})
}

func (d *driver) opDelete() {
	id, c := d.pick()
	code, raw := d.must(http.MethodDelete, "/v1/cursor/"+id, nil)
	want := http.StatusNoContent
	switch {
	case c == nil:
		want = http.StatusNotFound
	case c.state == mGone:
		want = http.StatusGone
	}
	if code != want {
		d.failf("delete %s: %d: %s, want %d", id, code, raw, want)
	}
	if c != nil {
		d.m.evict(c, "deleted by client")
	}
}

func (d *driver) opInfo() {
	id, c := d.pick()
	code, raw := d.must(http.MethodGet, "/v1/cursor/"+id, nil)
	switch {
	case c == nil:
		if code != http.StatusNotFound {
			d.failf("info %s: %d, want 404", id, code)
		}
	case c.state == mGone:
		if code != http.StatusGone || !strings.Contains(d.errMsg(code, raw), c.why) {
			d.failf("info %s: %d: %s, want 410 mentioning %q", id, code, raw, c.why)
		}
	default:
		var info InfoResponse
		if err := json.Unmarshal(raw, &info); err != nil || code != http.StatusOK || info.Reported != int64(c.pos) {
			d.failf("info %s: %d: %s, want 200 with reported %d", id, code, raw, c.pos)
		}
	}
}

// advance moves both clocks.
func (d *driver) advance(dt time.Duration) {
	d.clk.Advance(dt)
	d.m.advance(dt)
}

// opExpire advances the clock — short of the TTL, past it, or past the wall
// budget — and runs the janitor's sweep by hand.
func (d *driver) opExpire() {
	switch d.rnd.Intn(4) {
	case 0:
		d.advance(modelTTL / 2)
	case 1:
		d.advance(modelWall)
		return // no sweep: the wall budget cancels, it does not evict
	default:
		d.advance(modelTTL + time.Second)
	}
	d.srv.sweep(d.clk.Now())
	d.m.sweep()
}

func (d *driver) opDrain() {
	d.srv.beginDrain()
	d.m.drain()
	if code, _ := d.must(http.MethodGet, "/readyz", nil); code != http.StatusServiceUnavailable {
		d.failf("readyz while draining: %d, want 503", code)
	}
}

func (d *driver) opClose() {
	if err := d.srv.Close(); err != nil {
		d.failf("Close: %v", err)
	}
	d.m.close()
}

// opCreateRacingClose catches a create inside engine construction (the
// queue-store factory blocks), closes the server under it, and lets it go:
// the create must be refused and its engine must not outlive the server.
func (d *driver) opCreateRacingClose() {
	if d.m.createStatus() != http.StatusCreated {
		d.opClose()
		return
	}
	d.stores.mu.Lock()
	d.stores.block, d.stores.hit, d.stores.open = true, make(chan struct{}), make(chan struct{})
	hit, open := d.stores.hit, d.stores.open
	d.stores.mu.Unlock()
	type resp struct {
		code int
		raw  []byte
	}
	out := make(chan resp, 1)
	go func() {
		code, raw, _ := d.do(context.Background(), http.MethodPost, "/v1/query",
			QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Queue: "hybrid", HybridDT: 500, MaxPairs: 20})
		out <- resp{code, raw}
	}()
	<-hit
	d.opClose()
	close(open)
	r := <-out
	if r.code != http.StatusServiceUnavailable {
		d.failf("create racing Close: %d: %s, want 503 (an engine opened under a closed server is never reclaimed)", r.code, r.raw)
	}
	d.orphans++
}

// opGated holds one pull mid-engine and lets something happen to its cursor.
func (d *driver) opGated() {
	c := d.pickOpen()
	if c == nil {
		d.opCreate()
		return
	}
	actions := []string{"second-pull", "delete", "ttl", "wall", "drain", "close", "disconnect", "timeout", "panic"}
	action := actions[d.rnd.Intn(len(actions))]
	stream, k := d.rnd.Intn(2) == 0 || action == "disconnect", 2+d.rnd.Intn(12)
	path := d.pullPath(c.id, stream, k)
	if action == "timeout" {
		path += "&timeout_ms=1"
	}
	d.op = "gated " + action + " " + path

	mode := hookBlock
	if action == "panic" {
		mode = hookPanic
	}
	d.hook.arm(mode)
	d.m.lease(c)
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	type resp struct {
		code int
		raw  []byte
		err  error
	}
	out := make(chan resp, 1)
	go func() {
		code, raw, err := d.do(ctx, http.MethodGet, path, nil)
		out <- resp{code, raw, err}
	}()
	// finish opens the gate, collects the pull and checks it.
	finish := func(ev event) {
		d.hook.release()
		r := <-out
		if r.err != nil {
			d.failf("pull: %v", r.err)
		}
		d.checkPull(c, stream, k, d.observe(stream, r.code, r.raw), ev)
	}
	if action == "panic" {
		r := <-out
		out <- r
		finish(event{panics: d.hook.release()})
		return
	}
	select {
	case <-d.hook.hit:
	case r := <-out:
		// The pull never reached the gate (its pairs were already resolved):
		// an ordinary pull. A 1 ms timeout may also lapse before the first
		// Next, which the pull answers as an empty soft stop.
		out <- r
		var ev event
		if action == "timeout" {
			ev.soft = "pull timeout"
		}
		finish(ev)
		return
	}

	// The pull now sits inside the engine, holding the cursor's lease.
	awaitInterrupt := func(what string) {
		srvCursor, herr := d.srv.table.lookup(c.id)
		if herr != nil {
			d.failf("cursor vanished under a live pull: %s", herr.Msg)
		}
		deadline := time.Now().Add(2 * time.Second)
		for !interrupted(srvCursor) {
			if time.Now().After(deadline) {
				d.failf("%s did not hard-cancel the live pull: it would wait the pull out", what)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	switch action {
	case "second-pull":
		wantCode := http.StatusConflict
		if d.maxInfl == 1 {
			wantCode = http.StatusTooManyRequests
		}
		if code, raw := d.must(http.MethodGet, d.pullPath(c.id, d.rnd.Intn(2) == 0, 3), nil); code != wantCode {
			d.failf("second pull on a leased cursor: %d: %s, want %d", code, raw, wantCode)
		}
		finish(event{})
	case "delete":
		deleted := make(chan int, 1)
		go func() {
			code, _, _ := d.do(context.Background(), http.MethodDelete, "/v1/cursor/"+c.id, nil)
			deleted <- code
		}()
		awaitInterrupt("DELETE")
		d.m.evict(c, "deleted by client")
		finish(event{})
		if code := <-deleted; code != http.StatusNoContent {
			d.failf("DELETE mid-pull: %d, want 204", code)
		}
	case "ttl":
		d.advance(modelTTL + time.Second)
		d.srv.sweep(d.clk.Now())
		d.m.sweep()
		if got, want := d.srv.OpenCursors(), d.m.live(); got != want {
			d.failf("after a sweep under a live pull: %d cursors in the table, the model has %d", got, want)
		}
		finish(event{})
	case "wall":
		d.advance(modelWall)
		finish(event{})
	case "drain":
		d.opDrain()
		finish(event{})
	case "close":
		closed := make(chan error, 1)
		go func() { closed <- d.srv.Close() }()
		awaitInterrupt("Close")
		d.m.close()
		finish(event{})
		if err := <-closed; err != nil {
			d.failf("Close: %v", err)
		}
	case "disconnect":
		hangUp()
		select {
		case <-d.streams.Load().(streamReq).ctx.Done():
		case <-time.After(5 * time.Second):
			d.failf("server never noticed the client disconnect")
		}
		d.hook.release()
		if r := <-out; r.err == nil {
			d.failf("disconnected stream still answered %d", r.code)
		}
		d.awaitIdle()
		// The pairs the server wrote to the dead connection are spent: its
		// reported count says how many.
		code, raw := d.must(http.MethodGet, "/v1/cursor/"+c.id, nil)
		var info InfoResponse
		if err := json.Unmarshal(raw, &info); err != nil || code != http.StatusOK {
			d.failf("info after disconnect: %d: %s", code, raw)
		}
		if info.Reported < int64(c.pos) || info.Reported > int64(c.pos+k) || info.State != "open" {
			d.failf("after disconnect: state %q reported %d, want open within [%d, %d]", info.State, info.Reported, c.pos, c.pos+k)
		}
		c.pos, c.leased = int(info.Reported), false
		c.pulls++ // the pull held the open engine though its client hung up
	case "timeout":
		time.Sleep(5 * time.Millisecond)
		finish(event{soft: "pull timeout"})
	}
}

// awaitIdle waits until no request holds an in-flight slot.
func (d *driver) awaitIdle() {
	deadline := time.Now().Add(5 * time.Second)
	for len(d.srv.inflight) > 0 {
		if time.Now().After(deadline) {
			d.failf("%d in-flight slots still held", len(d.srv.inflight))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// invariants are checked after every step.
func (d *driver) invariants() {
	d.awaitIdle()
	if got, want := d.srv.OpenCursors(), d.m.live(); got != want {
		d.failf("%d cursors in the table, the model has %d", got, want)
	}
}

// quiesce ends the schedule and checks conservation.
func (d *driver) quiesce(baseline int) {
	d.step, d.op = -1, "quiesce"
	if !d.m.closed {
		d.opClose()
	}
	for _, id := range d.ids {
		c := d.m.cursors[id]
		code, raw := d.must(http.MethodGet, d.pullPath(id, false, 1), nil)
		if code != http.StatusGone || !strings.Contains(d.errMsg(code, raw), c.why) {
			d.failf("cursor %s after Close: %d: %s, want 410 mentioning %q", id, code, raw, c.why)
		}
	}
	if code, _ := d.must(http.MethodPost, "/v1/query", QueryRequest{Kind: "join", Index1: "water", Index2: "roads"}); code != http.StatusServiceUnavailable {
		d.failf("create after Close: %d, want 503", code)
	}
	d.awaitIdle()
	if n := d.srv.OpenCursors(); n != 0 {
		d.failf("%d cursors open after Close", n)
	}
	if n := d.tracer.Active(); n != 0 {
		d.failf("%d queries still active in the tracer: an engine was never closed", n)
	}
	d.mu.Lock()
	landed := len(d.landed)
	for _, id := range d.ids {
		if d.landed[id] != 1 {
			d.mu.Unlock()
			d.failf("cursor %s landed %d traces, want exactly 1 (engine closed once)", id, d.landed[id])
		}
		if got, want := d.pulls[id], int64(d.m.cursors[id].pulls); got != want {
			d.mu.Unlock()
			d.failf("cursor %s's trace counts %d pulls, the model leased %d on its open engine", id, got, want)
		}
	}
	d.mu.Unlock()
	if landed != len(d.ids)+d.orphans {
		d.failf("%d traces landed for %d admitted cursors and %d creates caught by Close: a refused create ran an engine",
			landed, len(d.ids), d.orphans)
	}
	if _, opened, closed := d.stores.counts(); opened != closed {
		d.failf("%d queue stores opened, %d closed", opened, closed)
	}
	d.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			d.failf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func runSchedule(t *testing.T, seed int64) {
	baseline := runtime.NumGoroutine()
	d := newDriver(t, seed)
	defer d.ts.Close()
	defer d.srv.Close()
	defer d.hook.release() // never leave a pull parked at the gate
	steps := 25 + d.rnd.Intn(30)
	for d.step = 0; d.step < steps; d.step++ {
		switch n := d.rnd.Intn(100); {
		case n < 22:
			d.op = "create"
			d.opCreate()
		case n < 50:
			d.op = "pull"
			d.opPull()
		case n < 72:
			d.op = "gated"
			d.opGated()
		case n < 80:
			d.op = "delete"
			d.opDelete()
		case n < 86:
			d.op = "info"
			d.opInfo()
		case n < 94:
			d.op = "expire"
			d.opExpire()
		case n < 96:
			d.op = "drain"
			d.opDrain()
		case n < 98:
			d.op = "close"
			d.opClose()
		default:
			d.op = "create-racing-close"
			d.opCreateRacingClose()
		}
		d.invariants()
	}
	d.quiesce(baseline)
}

// modelArmed counts the cursors the schedules created on a store armed to
// fail a page write, and those among them whose query, drained, reaches the
// armed write and dies of it (the schedules run one after another).
var modelArmed struct{ cursors, faulting int }

func TestCursorLifecycleModel(t *testing.T) {
	if *modelSeed != 0 {
		runSchedule(t, *modelSeed)
		return
	}
	schedules := 300
	if testing.Short() {
		schedules = 40
	}
	modelArmed.cursors, modelArmed.faulting = 0, 0
	for seed := int64(1); seed <= int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSchedule(t, seed) })
	}
	// A write count the query never reaches makes the fault op a second
	// healthy create: the armed stores must really fail their cursors.
	t.Logf("%d of %d armed cursors die of the injected fault", modelArmed.faulting, modelArmed.cursors)
	if modelArmed.cursors == 0 || modelArmed.faulting*10 < modelArmed.cursors*9 {
		t.Errorf("only %d of %d armed cursors reach their fault, want at least 90 %%", modelArmed.faulting, modelArmed.cursors)
	}
}
