package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"distjoin"
)

// gcSample reads the runtime's GC accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// setGC reports the GC's share of CPU and its cycles per query between two
// samples of this process.
func setGC(res *result, before, after gcSample, queries int) {
	share := 0.0
	if total := after.totalCPU - before.totalCPU; total > 0 {
		share = (after.gcCPU - before.gcCPU) / total
	}
	res.set("runtime.gc_cpu_share", share)
	res.set("runtime.gc_cycles", float64(after.cycles-before.cycles)/float64(queries))
	res.note("runtime.gc_cycles", "per query")
}

// tracedQuery runs q under the span wrappers and work counters until budget
// is spent, and reports the per-layer rows a traced query gives: the spatial,
// pqueue and distjoin shares of the wall, the counter ratios, and the far
// tail of the per-pair delay. It returns the median wall of a traced
// repetition and the number of repetitions.
func tracedQuery(res *result, q query, set *sampleSet, expected int, budget time.Duration, maxReps int, traceID string) (wallS float64, reps int, err error) {
	tr := &tracer{}
	counters := &distjoin.Stats{}
	for _, ix := range set.ix {
		ix.water.SetCounters(counters)
		ix.roads.SetCounters(counters)
		defer ix.water.SetCounters(nil)
		defer ix.roads.SetCounters(nil)
	}
	opts := q.opts
	opts.Counters = counters
	if opts.Queue == distjoin.QueueHybrid {
		opts.QueueStore = fileStoreFactory(opts.HybridDir, tr)
	}
	on := set.targets(func(ix distjoin.SpatialIndex) distjoin.SpatialIndex {
		return tracedIndex{inner: ix, tr: tr}
	})

	log := &repLog{expected: expected}
	var total spanTable
	err = repeat(q, on, opts, tr, untilSpent(budget, 2), maxReps, log, res, func(repetition) {
		spans := tr.finish()
		total.merge(&spans)
		res.traces = append(res.traces, spans.record(fmt.Sprintf("%s/rep-%d", traceID, len(res.traces))))
	})
	if err != nil {
		return 0, 0, err
	}

	n := float64(len(log.reps))
	perQuery := func(d time.Duration) float64 { return d.Seconds() / n }
	wall, _ := total.busy(spQuery)
	nodeBusy, nodeCalls := total.busy(spNode)
	readBusy, _ := total.busy(spStoreRead)
	writeBusy, _ := total.busy(spStoreWrite)
	openBusy, _ := total.busy(spOpen)
	nextBusy, _ := total.busy(spNext)
	closeBusy, _ := total.busy(spClose)

	res.set("spatial.node.calls", float64(nodeCalls)/n)
	res.set("spatial.node.busy_s", perQuery(nodeBusy))
	res.set("spatial.node.share", nodeBusy.Seconds()/wall.Seconds())
	res.set("pqueue.store.busy_s", perQuery(readBusy+writeBusy))
	res.set("pqueue.store.share", (readBusy+writeBusy).Seconds()/wall.Seconds())
	res.set("distjoin.open_s", perQuery(openBusy))
	res.set("distjoin.next.busy_s", perQuery(nextBusy))
	res.set("distjoin.close_s", perQuery(closeBusy))
	// The queue is internal to the engine, so the engine's self time holds
	// the heap work and the spill encoding; the pairheap.* and pqueue.*
	// micro rows times the insert and pop counts apportion it.
	res.set("distjoin.self_s", perQuery(total.self(spNext)))
	res.note("distjoin.self_s", "next busy − spatial.node − pqueue.store under next")

	c := counters.Snapshot()
	pairs := float64(c.PairsReported)
	res.set("pager.hit_ratio", float64(c.BufferHits)/float64(c.BufferHits+c.NodeReads))
	res.set("pager.node_reads", float64(c.NodeReads)/n)
	res.set("pqueue.disk_pairs", float64(c.QueueDiskPairs)/n)
	res.set("pqueue.page_writes", float64(c.QueueWrites)/n)
	res.set("pqueue.page_reads", float64(c.QueueReads)/n)
	if c.QueueDiskPairs > 0 {
		res.set("pqueue.page_writes_per_disk_pair", float64(c.QueueWrites)/float64(c.QueueDiskPairs))
	}
	res.set("distjoin.dist_calcs_per_pair", float64(c.DistCalcs+c.NodeDistCalcs)/pairs)
	res.set("distjoin.queue_inserts_per_pair", float64(c.QueueInserts)/pairs)
	res.set("distjoin.max_queue", float64(c.MaxQueueSize))
	for _, name := range []string{"pager.node_reads", "pqueue.disk_pairs", "pqueue.page_writes", "pqueue.page_reads", "spatial.node.calls"} {
		res.note(name, "per query, %d traced repetitions", len(log.reps))
	}

	delayPercentiles(res, log.delays, "distjoin.next_p50_us", "distjoin.next_p999_us", 0.999, 1)
	res.set("distjoin.next_max_ms", float64(log.delays[len(log.delays)-1])/1e6)
	return median(log.column(func(r repetition) float64 { return r.wall.Seconds() })), len(log.reps), nil
}

// traceInProcess is the traced run of one in-process workload: reference
// repetitions exactly as the untraced run makes them, then the same query
// under the wrappers, then the rows that do not depend on the query.
func traceInProcess(cfg config, wl inProcessWorkload, sc scale, tmp string) (*result, error) {
	res := newResult()
	p, err := prepare(cfg, wl, sc, tmp, res, nil)
	if err != nil {
		return nil, err
	}
	defer p.set.Close()
	q, on, expected := p.q, p.on, p.expected
	budget := time.Duration(cfg.seconds / 3 * float64(time.Second))

	ref := &repLog{expected: expected}
	if err := repeat(q, on, q.opts, nil, untilSpent(budget, 2), wl.maxReps, ref, res, nil); err != nil {
		return nil, err
	}
	untraced := median(ref.column(func(r repetition) float64 { return r.wall.Seconds() }))

	gcBefore := readGC()
	traced, reps, err := tracedQuery(res, q, p.set, expected, budget, wl.maxReps, fmt.Sprintf("%s/seed-%d", wl.name, cfg.seed))
	if err != nil {
		return nil, err
	}
	setGC(res, gcBefore, readGC(), reps)
	res.set("bench.trace_overhead", traced/untraced)
	res.note("bench.trace_overhead", "median wall of %d traced over %d untraced repetitions", len(res.traces), len(ref.reps))

	if wl.variants {
		if err := telemetryOverheads(q, on, res, expected); err != nil {
			return nil, err
		}
		if err := parallelSpeedup(q, on, res, expected); err != nil {
			return nil, err
		}
	}
	if err := microRows(res, tmp); err != nil {
		return nil, err
	}
	res.finish(perLayer, false)
	return res, nil
}
