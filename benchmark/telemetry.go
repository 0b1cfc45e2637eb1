package main

import (
	"distjoin"
)

// telemetrySink attaches one of the engine's four telemetry sinks to a
// query's options. This file is the only place that knows how each sink is
// constructed and attached, so a change of the telemetry API re-points the
// benchmark here and nowhere else.
type telemetrySink struct {
	metric string
	attach func(*distjoin.Options)
}

var telemetrySinks = []telemetrySink{
	{"telemetry.counters.overhead", func(o *distjoin.Options) { o.Counters = &distjoin.Stats{} }},
	{"telemetry.obs.overhead", func(o *distjoin.Options) { o.Obs = distjoin.NewRecorder(distjoin.ObsConfig{}) }},
	{"telemetry.profile.overhead", func(o *distjoin.Options) { o.Profile = &distjoin.ProfileSpans{} }},
	{"telemetry.tracer.overhead", func(o *distjoin.Options) {
		o.Tracer = distjoin.NewQueryTracer(distjoin.QueryTraceConfig{FlightSize: 16})
	}},
}

// variantReps is how many repetitions each telemetry and parallelism variant
// gets; the median wall is compared.
const variantReps = 3

// medianWall runs q reps times under opts, rotating over the samples like
// the timed repetitions do, and returns the median wall of a repetition.
func medianWall(q query, on []target, reps int, opts distjoin.Options, res *result, expected int) (float64, error) {
	walls := make([]float64, reps)
	for i := range walls {
		rep, err := q.run(on[i%len(on)].a, on[i%len(on)].b, opts, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		res.Attempted += int64(rep.pairs) + 1
		if rep.bad > 0 || rep.pairs != expected {
			res.Failed++
			res.fail("variant repetition delivered %d pairs (%d bad), expected %d", rep.pairs, rep.bad, expected)
		}
		walls[i] = rep.wall.Seconds()
	}
	return median(walls), nil
}

// telemetryOverheads reports, for each sink, the wall of a repetition with
// that one sink attached over the wall with none.
func telemetryOverheads(q query, on []target, res *result, expected int) error {
	bare, err := medianWall(q, on, variantReps, q.opts, res, expected)
	if err != nil {
		return err
	}
	for _, sink := range telemetrySinks {
		opts := q.opts
		sink.attach(&opts)
		with, err := medianWall(q, on, variantReps, opts, res, expected)
		if opts.Tracer != nil {
			opts.Tracer.Close()
		}
		if err != nil {
			return err
		}
		res.set(sink.metric, with/bare)
		res.note(sink.metric, "median of %d repetitions each", variantReps)
	}
	return nil
}

// parallelSpeedup reports the wall of the sequential bounded join over the
// wall of the same join with two partition workers. No workload sets
// Parallelism, so no end-to-end metric depends on this; it is recorded so
// that the roadmap's prove-or-remove decision has a number.
func parallelSpeedup(q query, on []target, res *result, expected int) error {
	bounded := q
	bounded.pairs = 0 // MaxPairs ends the stream
	seq := q.opts
	seq.MaxPairs = q.pairs
	one, err := medianWall(bounded, on, variantReps, seq, res, expected)
	if err != nil {
		return err
	}
	par := seq
	par.Parallelism = 2
	two, err := medianWall(bounded, on, variantReps, par, res, expected)
	if err != nil {
		return err
	}
	res.set("distjoin.parallel.p2_speedup", one/two)
	res.note("distjoin.parallel.p2_speedup", "MaxPairs %d, median of %d repetitions each", q.pairs, variantReps)
	return nil
}
