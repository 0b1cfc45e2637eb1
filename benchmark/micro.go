package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"distjoin/internal/geom"
	"distjoin/internal/geom/kernel"
	"distjoin/internal/pager"
	"distjoin/internal/pairheap"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/server"
)

// Micro rows time one layer's exported functions on a fixed synthetic
// input. They do not depend on the workload or the seed: they say what a
// layer costs per call on this machine, today, so that a change in a traced
// or end-to-end figure can be set against the layer that caused it.

// microRounds is how often a micro row repeats; the median is reported.
const microRounds = 5

// microScale divides every micro row's iteration count. It is 1 except in
// the package's tests, which only check that every row is produced.
var microScale = 1

func scaled(n int) int { return max(n/microScale, 1) }

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink float64

// perOp runs f microRounds times and returns the median of its results.
func perOp(f func() float64) float64 {
	v := make([]float64, microRounds)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// nsPer is the time since start divided by n operations.
func nsPer(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// microRows measures every micro row into res.
func microRows(res *result, tmp string) error {
	microKernel(res)
	if err := microPager(res); err != nil {
		return fmt.Errorf("pager micro rows: %w", err)
	}
	if err := microRTree(res); err != nil {
		return fmt.Errorf("rtree micro rows: %w", err)
	}
	microPairHeap(res)
	microMemQueue(res)
	if err := microHybridQueue(res, tmp); err != nil {
		return fmt.Errorf("pqueue micro rows: %w", err)
	}
	if err := microEncode(res); err != nil {
		return fmt.Errorf("server micro row: %w", err)
	}
	res.set("runtime.calib_ns", perOp(calibrate))
	// The memory-latency figure the untraced runs scale their timings by
	// (calib.go), here as a row of its own.
	host := newHostClock()
	host.sample(time.Duration(scaled(100)) * time.Millisecond)
	res.set("runtime.calib_mem_ns", host.latency())
	res.note("runtime.calib_mem_ns", "median of %d bursts; timings are scaled to %.1f ns", len(host.samples), calibRefNS)
	return nil
}

// fanout is the entry count of a full 2 KiB node in 2-D, the batch size the
// engine hands the kernels.
const fanout = 51

func microKernel(res *result) {
	rnd := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, fanout)
	pts := make([]geom.Point, fanout)
	for i := range rects {
		x, y := rnd.Float64()*1e5, rnd.Float64()*1e5
		rects[i] = geom.R(geom.Pt(x, y), geom.Pt(x+rnd.Float64()*500, y+rnd.Float64()*500))
		pts[i] = geom.Pt(x, y)
	}
	query := geom.R(geom.Pt(4e4, 4e4), geom.Pt(4.1e4, 4.1e4))
	batch := kernel.For(geom.Euclidean)
	out := make([]float64, fanout)
	var rc kernel.RectCols
	var pc kernel.PointCols
	batches := scaled(20_000)

	res.set("kernel.append_ns_per_rect", perOp(func() float64 {
		start := time.Now()
		for i := 0; i < batches; i++ {
			rc.Reset(2)
			for _, r := range rects {
				rc.Append(r)
			}
		}
		return nsPer(start, batches*fanout)
	}))
	res.set("kernel.mindist_ns_per_rect", perOp(func() float64 {
		start := time.Now()
		for i := 0; i < batches; i++ {
			batch.MinDistBatch(query, &rc, out)
		}
		sink += out[0]
		return nsPer(start, batches*fanout)
	}))
	pc.Reset(2)
	for _, p := range pts {
		pc.Append(p)
	}
	res.set("kernel.dist_ns_per_point", perOp(func() float64 {
		start := time.Now()
		for i := 0; i < batches; i++ {
			batch.DistBatch(query.Lo, &pc, out)
		}
		sink += out[0]
		return nsPer(start, batches*fanout)
	}))
}

// The pager rows use the index configuration's pool: 128 frames of 2 KiB
// over a memory store holding four times as many pages.
const (
	poolFrames = 128
	poolPages  = 4 * poolFrames
)

func microPager(res *result) error {
	store, err := pager.NewMemStore(2048)
	if err != nil {
		return err
	}
	defer store.Close()
	pool, err := pager.NewPool(store, poolFrames, nil)
	if err != nil {
		return err
	}
	ids := make([]pager.PageID, poolPages)
	for i := range ids {
		f, err := pool.Allocate()
		if err != nil {
			return err
		}
		ids[i] = f.ID()
		pool.Unpin(f)
	}
	// scan gets and unpins n pages, cycling over the first span ids: a span
	// within the pool's capacity always hits, and a cyclic scan of more
	// pages than frames always misses under LRU.
	scan := func(span, n int) error {
		for i := 0; i < n; i++ {
			f, err := pool.Get(ids[i%span])
			if err != nil {
				return err
			}
			pool.Unpin(f)
		}
		return nil
	}
	var scanErr error
	timed := func(span, n int) func() float64 {
		return func() float64 {
			if err := scan(span, span); err != nil { // make the span's residency steady
				scanErr = err
			}
			start := time.Now()
			if err := scan(span, n); err != nil {
				scanErr = err
			}
			return nsPer(start, n)
		}
	}
	res.set("pager.get_hit_ns", perOp(timed(poolFrames/2, scaled(400_000))))
	res.set("pager.get_miss_ns", perOp(timed(poolPages, scaled(100_000))))

	// Contended hits: one caller per CPU on one pool, as concurrent cursors
	// on a shared index are. The figure is what one caller waits per Get.
	callers := runtime.NumCPU()
	res.set("pager.get_hit_contended_ns", perOp(func() float64 {
		n := scaled(200_000)
		var wg sync.WaitGroup
		errs := make([]error, callers)
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = scan(poolFrames/2, n)
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				scanErr = err
			}
		}
		return nsPer(start, n)
	}))
	res.note("pager.get_hit_contended_ns", "%d callers on one pool", callers)
	return scanErr
}

func microRTree(res *result) error {
	points := scaled(20_000)
	rnd := rand.New(rand.NewSource(2))
	items := make([]rtree.Item, points)
	for i := range items {
		items[i] = rtree.Item{Rect: geom.Pt(rnd.Float64()*1e5, rnd.Float64()*1e5).Rect(), Obj: rtree.ObjID(i)}
	}
	var tree *rtree.Tree
	var loadErr error
	res.set("rtree.bulkload_ns_per_point", perOp(func() float64 {
		if tree != nil {
			tree.Close()
		}
		start := time.Now()
		tree, loadErr = rtree.BulkLoad(rtree.Config{Dims: 2}, items)
		return nsPer(start, points)
	}))
	if loadErr != nil {
		return loadErr
	}
	defer tree.Close()

	// Descend to a leaf: a full node, the common case of a node read.
	page := tree.RootPage()
	for {
		n, err := tree.ReadNode(page)
		if err != nil {
			return err
		}
		if n.Leaf() {
			break
		}
		page = n.Entries[0].Child
	}
	reads := scaled(50_000)
	var readErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.set("rtree.read_node_ns", perOp(func() float64 {
		start := time.Now()
		for i := 0; i < reads; i++ {
			n, err := tree.ReadNode(page)
			if err != nil {
				readErr = err
				break
			}
			sink += float64(len(n.Entries))
		}
		return nsPer(start, reads)
	}))
	runtime.ReadMemStats(&after)
	total := float64(reads * microRounds)
	res.set("rtree.read_node_allocs", float64(after.Mallocs-before.Mallocs)/total)
	res.set("rtree.read_node_bytes", float64(after.TotalAlloc-before.TotalAlloc)/total)
	return readErr
}

// queued is a 64-byte queue element, about the size of the engine's pair.
type queued struct {
	key float64
	pad [7]uint64
}

func lessQueued(a, b queued) bool { return a.key < b.key }

// randomKeys returns n keys uniform in [lo, hi).
func randomKeys(seed int64, n int, lo, hi float64) []queued {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]queued, n)
	for i := range out {
		out[i].key = lo + rnd.Float64()*(hi-lo)
	}
	return out
}

func microPairHeap(res *result) {
	// A million inserts: about the queue the first pair of join-first waits
	// for.
	inserts, pops := scaled(1_000_000), scaled(100_000)
	elems := randomKeys(3, inserts, 0, 1)
	var popNS []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.set("pairheap.insert_ns", perOp(func() float64 {
		h := pairheap.New(lessQueued)
		start := time.Now()
		for _, e := range elems {
			h.Insert(e)
		}
		ins := nsPer(start, inserts)
		start = time.Now()
		for i := 0; i < pops; i++ {
			sink += h.PopMin().key
		}
		popNS = append(popNS, nsPer(start, pops))
		return ins
	}))
	runtime.ReadMemStats(&after)
	res.set("pairheap.popmin_ns", median(popNS))
	res.set("pairheap.allocs_per_insert", float64(after.Mallocs-before.Mallocs)/float64(inserts*microRounds))
}

func microMemQueue(res *result) {
	inserts, pops := scaled(200_000), scaled(50_000)
	elems := randomKeys(4, inserts, 0, 1)
	var popNS []float64
	res.set("pqueue.mem.insert_ns", perOp(func() float64 {
		q := pqueue.NewMemQueue(lessQueued, nil)
		start := time.Now()
		for _, e := range elems {
			q.Insert(e) // the memory queue cannot fail
		}
		ins := nsPer(start, inserts)
		start = time.Now()
		for i := 0; i < pops; i++ {
			v, _, _ := q.Pop()
			sink += v.key
		}
		popNS = append(popNS, nsPer(start, pops))
		return ins
	}))
	res.set("pqueue.mem.pop_ns", median(popNS))
}

// queuedCodec is the fixed-width codec the hybrid queue spills queued with.
type queuedCodec struct{}

func (queuedCodec) Size() int { return 64 }

func (queuedCodec) Encode(dst []byte, v queued) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(v.key))
	for i, w := range v.pad {
		binary.LittleEndian.PutUint64(dst[8+8*i:], w)
	}
}

func (queuedCodec) Decode(src []byte) queued {
	v := queued{key: math.Float64frombits(binary.LittleEndian.Uint64(src))}
	for i := range v.pad {
		v.pad[i] = binary.LittleEndian.Uint64(src[8+8*i:])
	}
	return v
}

// microHybridQueue fills a file-backed hybrid queue with keys spread over
// 20 distance buckets and drains it. Which tier an element lands in follows
// from its key alone (below DT the heap, below 2·DT the list, beyond that
// disk), so the tiers can be timed apart from outside: heap-tier inserts and
// pops are the memory cost, disk-tier inserts are spills, and the pops that
// cross into a new bucket carry that bucket's reload.
func microHybridQueue(res *result, tmp string) error {
	const (
		dt      = 1.0
		buckets = 20
	)
	heapSize, diskSize := scaled(20_000), scaled(100_000)
	heapElems := randomKeys(5, heapSize, 0, dt)
	diskElems := randomKeys(6, diskSize, 2*dt, buckets*dt)
	var insNS, popNS, spillNS, loadNS []float64
	for round := 0; round < microRounds; round++ {
		q, err := pqueue.NewHybridQueue(lessQueued, func(v queued) float64 { return v.key },
			queuedCodec{}, pqueue.HybridConfig{DT: dt, Dir: tmp})
		if err != nil {
			return err
		}
		start := time.Now()
		for _, e := range heapElems {
			if err := q.Insert(e); err != nil {
				q.Close()
				return err
			}
		}
		insNS = append(insNS, nsPer(start, heapSize))
		start = time.Now()
		for _, e := range diskElems {
			if err := q.Insert(e); err != nil {
				q.Close()
				return err
			}
		}
		spillNS = append(spillNS, nsPer(start, diskSize))

		var popTotal, loadTotal time.Duration
		var plainPops int
		bucket := 0
		for q.Len() > 0 {
			start := time.Now()
			v, ok, err := q.Pop()
			d := time.Since(start)
			if err != nil || !ok {
				q.Close()
				return fmt.Errorf("pop with %d queued: ok=%v err=%v", q.Len(), ok, err)
			}
			if b := int(v.key / dt); b > bucket {
				bucket = b
				loadTotal += d
			} else {
				popTotal += d
				plainPops++
			}
		}
		popNS = append(popNS, float64(popTotal.Nanoseconds())/float64(plainPops))
		loadNS = append(loadNS, float64(loadTotal.Nanoseconds())/float64(diskSize))
		if err := q.Close(); err != nil {
			return err
		}
	}
	res.set("pqueue.hybrid.insert_ns", median(insNS))
	res.set("pqueue.hybrid.pop_ns", median(popNS))
	res.set("pqueue.hybrid.spill_ns_per_pair", median(spillNS))
	res.set("pqueue.hybrid.load_ns_per_pair", median(loadNS))
	return nil
}

// microEncode times the JSON encoding of one pull's response body.
func microEncode(res *result) error {
	resp := server.NextResponse{Cursor: "c0000001", Reported: pullK, ExpiresAt: "2026-01-01T00:00:00Z"}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < pullK; i++ {
		resp.Pairs = append(resp.Pairs, server.PairJSON{Obj1: rnd.Uint64() % 1e5, Obj2: rnd.Uint64() % 1e5, Dist: rnd.Float64() * 1e3})
	}
	var encErr error
	res.set("server.encode_ns_per_pair", perOp(func() float64 {
		n := scaled(20_000)
		start := time.Now()
		for i := 0; i < n; i++ {
			b, err := json.Marshal(resp)
			if err != nil {
				encErr = err
			}
			sink += float64(len(b))
		}
		return nsPer(start, n*pullK)
	}))
	return encErr
}

// calibrate times a fixed arithmetic loop that touches no memory: when a
// whole run reads slow, this says whether the host was.
func calibrate() float64 {
	n := scaled(20_000_000)
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += float64(x & 1)
	return nsPer(start, n)
}
