// Command benchmark is the repository's timing record: five workloads over
// the distance join — four through the library, one through the distjoind
// daemon on loopback — each reporting what a user sees (time to first pair,
// pairs per second, inter-pair delay, allocations, memory, CPU) and, in a
// separate traced run, what every layer underneath contributes. See
// README.md for every workload and metric, and BENCHMARK.json for the
// contract the numbers are judged by.
//
//	bash benchmark/run.sh --workload join-first --seed 7 --seconds 18 --trace 0
//	bash benchmark/run.sh --workload all --trace 1
//	bash benchmark/run.sh --aa 10
//
// One invocation with a workload name measures in this process; "all" and
// --aa start one fresh process per workload run, so heap state and the
// resident-set high-water mark never leak from one workload into the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 18

// config is what the command line fixes for one run.
type config struct {
	root      string // repository root
	distjoind string // path of the daemon binary
	outDir    string
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     string // overrides every workload's default scale when set
}

func (c config) scaleFor(def string) (scale, error) {
	if c.scale != "" {
		return scaleByName(c.scale)
	}
	return scaleByName(def)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.distjoind, "distjoind", "", "path of the distjoind binary served-pulls starts (run.sh builds it)")
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+workloadList()+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1998, "seed the inputs are sampled with")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "seconds of timed work per run")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	fs.StringVar(&cfg.scale, "scale", "", "override every workload's scale: smoke, small, mid or paper")
	aa := fs.Int("aa", 0, "run this many complete untraced sets of the same code and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg.trace = *trace != 0
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg.root = root
	cfg.outDir = filepath.Join(root, "benchmark", "out")
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}

	switch {
	case *aa > 0:
		err = runAA(cfg, *aa)
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadList() string { return strings.Join(workloadNames(), ", ") }

// workloadNames lists the five workloads in the order they are run.
func workloadNames() []string {
	names := make([]string, 0, len(inProcessWorkloads)+1)
	for _, wl := range inProcessWorkloads {
		names = append(names, wl.name)
	}
	return append(names, servedWorkload.name)
}

// errIncorrect reports a run whose outputs failed a correctness check; the
// result line has been printed with "correct": false.
var errIncorrect = fmt.Errorf("outputs are incorrect")

// runOne measures one workload in this process and prints its result.
func runOne(cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	// Scratch files (hybrid-queue pages, the daemon's CSV inputs and log)
	// live under out/ and go when the run ends.
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	res, err := measure(cfg, tmp)
	if err != nil {
		return err
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	if err := res.print(os.Stdout, fmt.Sprintf("%s (%s, seed %d, %.0f s)", cfg.workload, mode, cfg.seed, cfg.seconds)); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure dispatches on workload and mode.
func measure(cfg config, tmp string) (*result, error) {
	var (
		res *result
		sc  scale
		err error
	)
	if cfg.workload == servedWorkload.name {
		if sc, err = cfg.scaleFor(servedWorkload.scale); err != nil {
			return nil, err
		}
		if cfg.trace {
			res, err = traceServed(cfg, sc, tmp)
		} else {
			res, err = runServed(cfg, sc, tmp)
		}
	} else {
		wl, ok := inProcessByName(cfg.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (%s)", cfg.workload, workloadList())
		}
		if sc, err = cfg.scaleFor(inProcessScale); err != nil {
			return nil, err
		}
		if cfg.trace {
			res, err = traceInProcess(cfg, wl, sc, tmp)
		} else {
			res, err = runInProcess(cfg, wl, sc, tmp)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, writeResultFile(cfg, sc, res)
}

func inProcessByName(name string) (inProcessWorkload, bool) {
	for _, wl := range inProcessWorkloads {
		if wl.name == name {
			return wl, true
		}
	}
	return inProcessWorkload{}, false
}

// resultFile is what out/result-<workload>.json and
// out/trace-<workload>.json hold: the result with the environment it was
// taken in and, for a traced run, the aggregated spans of every trace.
type resultFile struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Seconds     float64           `json:"seconds"`
	Environment environment       `json:"environment"`
	Result      *result           `json:"result"`
	Notes       map[string]string `json:"notes"`
	Problems    []string          `json:"problems,omitempty"`
	Traces      []traceRecord     `json:"traces,omitempty"`
}

func writeResultFile(cfg config, sc scale, res *result) error {
	kind := "result"
	if cfg.trace {
		kind = "trace"
	}
	data, err := json.MarshalIndent(resultFile{
		Workload:    cfg.workload,
		Traced:      cfg.trace,
		Seconds:     cfg.seconds,
		Environment: readEnvironment(cfg.root, cfg.seed, sc.name),
		Result:      res,
		Notes:       res.notes,
		Problems:    res.problems,
		Traces:      res.traces,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s.json", kind, cfg.workload)), append(data, '\n'), 0o644)
}
