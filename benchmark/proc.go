package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// clockTicksPerSecond is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It has been 100 on every supported architecture since
// 2.6; reading it properly needs sysconf(3), which the standard library
// does not expose.
const clockTicksPerSecond = 100

// peakRSSMB returns the resident-set high-water mark (VmHWM) of a process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procCPUSeconds returns the user+system CPU time another process has
// consumed so far.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain spaces;
	// fields are counted from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing CPU times in /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// environment is the block written with every result: enough to tell
// whether two results were taken on comparable machines and builds.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
}

func readEnvironment(root string, seed int64, scale string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Scale:      scale,
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository; the commit is
	// recorded when there is one.
	git := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
