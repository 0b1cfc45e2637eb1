package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild measures one workload in a fresh process of this same binary and
// returns its result line, echoing the child's table to stdout.
func runChild(cfg config, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-root", cfg.root, "-distjoind", cfg.distjoind, "-scale", cfg.scale,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	os.Stdout.Write(out)

	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runAll measures every workload once, each in its own process.
func runAll(cfg config) error {
	incorrect := false
	for _, name := range workloadNames() {
		res, err := runChild(cfg, name, cfg.seed)
		if err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runAA is the A/A check: n complete untraced sets of the same code, set i
// on seed+i, as the acceptance check of this benchmark makes them. For every
// workload × end-to-end metric it prints median, quartiles and the
// interquartile spread as a share of the median beside the metric's bound,
// and the shift of the second half's median against the first half's. It
// fails when a spread or a shift exceeds its bound (setup_s is held to the
// shift only, like the acceptance check), or when any operation failed.
func runAA(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("--aa needs at least 2 sets, got %d", n)
	}
	cfg.trace = false
	names := workloadNames()
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	failures := 0
	for _, name := range names {
		values[name] = map[string][]float64{}
	}
	for set := 0; set < n; set++ {
		for _, name := range names {
			res, err := runChild(cfg, name, cfg.seed+int64(set))
			if err != nil {
				return err
			}
			if !res.Correct {
				failures++
			}
			for metric, m := range res.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
		}
	}

	fmt.Printf("\n== A/A over %d sets (seeds %d…%d, %.0f s each)\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Printf("%-18s %-28s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "shift", "bound")
	disagree := 0
	for _, name := range names {
		for _, def := range endToEnd {
			v := values[name][def.Name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			// shift is how much worse the second half of the sets reads
			// than the first half, as a share of the first half's median.
			shift := (median(v[n/2:]) - median(v[:n/2])) / median(v[:n/2])
			if def.Better == "higher" {
				shift = -shift
			}
			verdict := ""
			if (spread > def.Bound && def.Name != "setup_s") || shift > def.Bound {
				verdict = "  DISAGREES"
				disagree++
			}
			fmt.Printf("%-18s %-28s %12.6g %12.6g %12.6g %8.4f %+8.4f %6.2f%s\n",
				name, def.Name, q1, q2, q3, spread, shift, def.Bound, verdict)
		}
	}
	fmt.Printf("incorrect runs: %d\n", failures)
	if disagree > 0 || failures > 0 {
		return fmt.Errorf("A/A: %d metric(s) outside their bounds, %d incorrect run(s)", disagree, failures)
	}
	return nil
}
