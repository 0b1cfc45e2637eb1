package experiments

import (
	"errors"
	"fmt"
	"time"

	"distjoin/internal/distjoin"
	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
	"distjoin/internal/pqueue"
)

// Faults probes the failure model layered on top of the paper's algorithms
// (DESIGN.md "Failure model & recovery"): the Table-1 workload with the
// hybrid queue forced onto a deterministic fault-injecting page store.
//
// The first sweep raises the transient-fault probability with a bounded
// retry policy (Options.RetryIO, 4 attempts): every leg must produce exactly
// the clean leg's result, and the retries column is the price paid. The
// second sweep injects unrecoverable faults — a permanent write failure, a
// permanent read failure, a corrupted page (caught by the per-page
// checksum) and a store crash — and records how many correctly-ordered
// pairs the join delivered before surfacing the error.
func Faults(d *Datasets) ([]Run, error) {
	pairs := maxInt(d.Scale.PairCounts)
	// A deliberately tight D_T: initially everything at distance >= 2·D_T
	// spills, so the disk tier (and with it the fault schedule) engages
	// almost immediately.
	baseOpts := func() distjoin.Options {
		return distjoin.Options{
			Queue:         distjoin.QueueHybrid,
			HybridDT:      d.Scale.HybridDT1 / 10,
			QueuePageSize: 512,
		}
	}
	var created []*faultstore.Store
	mkStore := func(cfg faultstore.Config) func(int) (pager.Store, error) {
		return func(pageSize int) (pager.Store, error) {
			mem, err := pager.NewMemStore(pageSize)
			if err != nil {
				return nil, err
			}
			fs := faultstore.New(mem, cfg)
			created = append(created, fs)
			return fs, nil
		}
	}

	var out []Run

	// Transient sweep: retried faults must be invisible in the result.
	var clean Run
	var cleanStats faultstore.Stats
	for i, p := range []float64{0, 0.002, 0.01, 0.05} {
		created = created[:0]
		opts := baseOpts()
		opts.QueueStore = mkStore(faultstore.Config{
			Seed:               int64(1000 + i),
			TransientReadProb:  p,
			TransientWriteProb: p,
		})
		if p > 0 {
			// 6 attempts: at p=0.05 a six-fault streak is ~1.6e-8 per op,
			// negligible even over the full scale's disk traffic.
			opts.RetryIO = pager.RetryPolicy{MaxAttempts: 6, Sleep: func(time.Duration) {}}
		}
		r, _, err := d.open(distjoin.NewJoinIndexes, opts, false).drain(fmt.Sprintf("transient p=%.3f", p), pairs, nil, true)
		if err != nil {
			return nil, err
		}
		if r.Err != "" {
			return nil, fmt.Errorf("faults: transient leg p=%g did not recover: %s", p, r.Err)
		}
		if i == 0 {
			clean = r
			for _, fs := range created {
				s := fs.Stats()
				cleanStats.Ops += s.Ops
				cleanStats.Reads += s.Reads
				cleanStats.Writes += s.Writes
			}
		} else if r.Reported != clean.Reported || r.LastDist != clean.LastDist {
			return nil, fmt.Errorf("faults: retried leg p=%g diverged: %d pairs/last %g vs clean %d/%g",
				p, r.Reported, r.LastDist, clean.Reported, clean.LastDist)
		}
		out = append(out, r)
	}

	// Unrecoverable faults: the join must stop with the error after an
	// ordered prefix, never emit garbage. Retries are enabled to show they
	// (correctly) do not mask permanent failures.
	// Fault positions come from the clean leg's measured disk-op profile
	// (the fault legs replay the identical op sequence up to the fault), so
	// they land after the join has delivered an ordered prefix — deep into
	// the drain phase, not during the insert-heavy descent — at every
	// experiment scale.
	failWrite := int(3 * cleanStats.Writes / 4)
	failRead := int(3 * cleanStats.Reads / 4)
	corruptRead := int(7 * cleanStats.Reads / 8)
	crashOp := int(9 * cleanStats.Ops / 10)
	for _, fault := range []struct {
		label string
		cfg   faultstore.Config
	}{
		{fmt.Sprintf("write fails at write %d", failWrite), faultstore.Config{FailWriteAt: failWrite}},
		{fmt.Sprintf("read fails at read %d", failRead), faultstore.Config{FailReadAt: failRead}},
		{fmt.Sprintf("page corrupted at read %d", corruptRead), faultstore.Config{Seed: 77, CorruptReadAt: corruptRead}},
		{fmt.Sprintf("store crashes after %d ops", crashOp), faultstore.Config{CrashAfterOps: crashOp}},
	} {
		opts := baseOpts()
		opts.QueueStore = mkStore(fault.cfg)
		opts.RetryIO = pager.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
		r, _, err := d.open(distjoin.NewJoinIndexes, opts, false).drain(fault.label, pairs, nil, true)
		if err != nil {
			return nil, err
		}
		if r.Err == "" {
			return nil, fmt.Errorf("faults: %q completed without surfacing an error", fault.label)
		}
		out = append(out, r)
	}
	return out, nil
}

// faultClass maps a surfaced join error to a short table cell.
func faultClass(err error) string {
	switch {
	case errors.Is(err, pqueue.ErrPageChecksum):
		return "page checksum"
	case errors.Is(err, pager.ErrClosed):
		return "store crashed"
	case errors.Is(err, faultstore.ErrInjected):
		return "injected I/O error"
	}
	return err.Error()
}
