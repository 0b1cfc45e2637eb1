// Command distjoind serves incremental distance joins over HTTP as
// resumable cursors. A client creates a cursor over a pair of named
// indexes (POST /v1/query), pulls the next k pairs in distance order
// (GET /v1/cursor/<id>/next?k=N) as often and as slowly as it likes, and
// deletes the cursor when done — the paper's pull-one-pair-at-a-time
// iterator, stretched over a network connection. Cursors survive client
// pauses in a bounded TTL-evicted table; admission control (-max-cursors
// table slots, -max-inflight concurrent requests, each refused with 429
// before any work is done) keeps many concurrent clients from sinking the
// process.
//
// Indexes come from persisted R*-tree files (-index name=path), CSV point
// sets (-csv name=path, built into an in-memory R*-tree at startup), or a
// deterministic synthetic demo pair (-demo n: "water" and "roads").
//
//	distjoind -demo 50000 -addr :8080 -flightrec 256 -slowlog slow.jsonl
//	curl -s localhost:8080/v1/indexes
//	curl -s -X POST localhost:8080/v1/query -d '{"kind":"join","index1":"water","index2":"roads"}'
//	curl -s localhost:8080/v1/cursor/c0000001/next?k=100
//	curl -s -X DELETE localhost:8080/v1/cursor/c0000001
//
// /metrics serves Prometheus text (the one Recorder's work counts, node I/O
// of the shared index pools, delay histograms, the RED families, the pull
// SLO's bad-request counter — burn rates are the scraper's ratio of it to
// the pull count — and the two saturation gauges
// distjoind_cursors_open/_max and distjoind_pulls_inflight/_max),
// /debug/queries the flight recorder with every per-query number (a
// cursor's pulls and their time among them), /debug/pprof the usual
// profiles. There is no node-I/O slow-log threshold: node I/O happens in
// buffer pools shared by every cursor, so a cursor's trace reports the
// pools' traffic while it was open, which under concurrency includes other
// cursors' reads — thresholding on it would log the wrong queries.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/obs"
	"distjoin/internal/qtrace"
	"distjoin/internal/server"
)

// repeatable collects repeated name=path flags.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, errw *os.File) int {
	fs := flag.NewFlagSet("distjoind", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		indexFiles, csvFiles repeatable
		addr                 = fs.String("addr", ":8080", "listen address")
		demo                 = fs.Int("demo", 0, "register synthetic demo indexes \"water\" and \"roads\" with this many points each")
		maxCursors           = fs.Int("max-cursors", 0, "cursor table size: creates beyond this many open cursors answer 429 (0 = 64)")
		maxInflight          = fs.Int("max-inflight", 0, "pulls and creates served at once; more answer 429 (0 = 32)")
		ttl                  = fs.Duration("cursor-ttl", 0, "idle cursor time-to-live before eviction (0 = default)")
		drainTimeout         = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown window on SIGINT/SIGTERM before open connections are cut")
		maxBatch             = fs.Int("max-batch", 0, "largest k honoured by one next/stream pull (0 = default)")
		flightRec            = fs.Int("flightrec", 256, "flight-recorder size: retain the last N query traces at /debug/queries")
		slowLogPath          = fs.String("slowlog", "", "write slow-query traces to this file as JSONL (size-capped, rotated)")
		logFormat            = fs.String("log-format", "text", "structured log format on stderr: text or json")
	)
	fs.Var(&indexFiles, "index", "register a persisted R*-tree: name=path (repeatable)")
	fs.Var(&csvFiles, "csv", "register a CSV point set as an in-memory R*-tree: name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(errw, nil)
	case "json":
		handler = slog.NewJSONHandler(errw, nil)
	default:
		fmt.Fprintf(errw, "distjoind: -log-format wants text or json, got %q\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	reg := server.NewRegistry()
	defer reg.Close()
	owned := make([]*distjoin.Index, 0, 4)
	defer func() {
		for _, idx := range owned {
			idx.Close()
		}
	}()
	for _, spec := range indexFiles {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(errw, "distjoind: -index wants name=path, got %q\n", spec)
			return 2
		}
		if err := reg.OpenFile(name, path); err != nil {
			logger.Error("opening index", "name", name, "path", path, "err", err)
			return 1
		}
	}
	for _, spec := range csvFiles {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(errw, "distjoind: -csv wants name=path, got %q\n", spec)
			return 2
		}
		f, err := os.Open(path)
		if err != nil {
			logger.Error("opening csv", "name", name, "path", path, "err", err)
			return 1
		}
		pts, err := datagen.ReadPoints(f)
		f.Close()
		if err != nil {
			logger.Error("reading csv", "path", path, "err", err)
			return 1
		}
		idx, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, pts)
		if err != nil {
			logger.Error("building csv index", "name", name, "path", path, "err", err)
			return 1
		}
		owned = append(owned, idx)
		if err := reg.RegisterIndex(name, idx); err != nil {
			logger.Error("registering csv index", "name", name, "err", err)
			return 1
		}
	}
	if *demo > 0 {
		water := distjoin.NewIndexFromPoints(datagen.Water(7, *demo))
		roads := distjoin.NewIndexFromPoints(datagen.Roads(8, *demo))
		owned = append(owned, water, roads)
		if err := reg.RegisterIndex("water", water); err != nil {
			logger.Error("registering demo index", "name", "water", "err", err)
			return 1
		}
		if err := reg.RegisterIndex("roads", roads); err != nil {
			logger.Error("registering demo index", "name", "roads", "err", err)
			return 1
		}
	}
	if len(reg.List()) == 0 {
		fmt.Fprintln(errw, "distjoind: no indexes registered; use -index, -csv or -demo")
		return 2
	}

	traceCfg := distjoin.QueryTraceConfig{FlightSize: *flightRec}
	if *slowLogPath != "" {
		// Size-capped rotation: a long-running daemon's slow-query log stays
		// bounded at about 3 files × 64 MiB on disk.
		slow, err := qtrace.OpenRotatingFile(*slowLogPath)
		if err != nil {
			logger.Error("opening slow-query log", "path", *slowLogPath, "err", err)
			return 1
		}
		defer slow.Close()
		traceCfg.SlowLog = slow
	}
	tracer := distjoin.NewQueryTracer(traceCfg)
	defer tracer.Close()
	rec := distjoin.NewRecorder(distjoin.ObsConfig{})
	red := obs.NewRED()

	running, err := server.Start(*addr, server.Config{
		Registry:    reg,
		MaxCursors:  *maxCursors,
		MaxInflight: *maxInflight,
		MaxBatch:    *maxBatch,
		TTL:         *ttl,
		Tracer:      tracer,
		Obs:         rec,
		Logger:      logger,
		RED:         red,
	}, func(srv *server.Server, mux *http.ServeMux) {
		// /metrics = the recorder's counts, histograms and gauges +
		// active-query gauge + RED and SLO families + cursor-table and
		// in-flight occupancy, one exposition.
		mux.Handle("/metrics", obs.HandlerTraced(rec, tracer, red.WritePrometheus, srv.WritePrometheus))
		mux.Handle("/debug/queries", distjoin.QueriesHandler("/debug/queries", tracer))
		mux.Handle("/debug/queries/", distjoin.QueriesHandler("/debug/queries", tracer))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	})
	if err != nil {
		logger.Error("starting server", "addr", *addr, "err", err)
		return 1
	}
	logger.Info(fmt.Sprintf("serving %d indexes on %s", len(reg.List()), running.Addr()),
		"indexes", len(reg.List()), "addr", running.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info(fmt.Sprintf("%v — draining (up to %v)", s, *drainTimeout),
		"signal", s.String(), "window", *drainTimeout)
	start := time.Now()
	// Graceful drain: /readyz flips to 503, every cursor is hard-canceled
	// (live pulls surface the cancellation in their stream trailers), and
	// the listener stays up through the window so clients observe their
	// 410s; a second signal force-quits immediately.
	done := make(chan error, 1)
	go func() { done <- running.Shutdown(*drainTimeout) }()
	select {
	case err := <-done:
		if err != nil {
			logger.Error("shutdown", "err", err)
			return 1
		}
	case s := <-sig:
		logger.Error(fmt.Sprintf("%v again — forcing exit", s), "signal", s.String())
		running.Close()
		return 1
	}
	logger.Info(fmt.Sprintf("drained in %v", time.Since(start).Round(time.Millisecond)),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return 0
}
