// Package buildinfo reads the binary's embedded build metadata
// (debug.ReadBuildInfo) once and exposes it two ways: a human-readable
// -version line (cmd/datagen, cmd/experiments) and a distjoin_build_info
// Prometheus gauge on /metrics. Everything degrades to "unknown" when the
// binary was built without module or VCS metadata (e.g. go run from a
// tarball).
package buildinfo

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
)

// Info is the subset of build metadata the system reports.
type Info struct {
	// Version is the main module's version ("(devel)" for a workspace
	// build, a semver tag for a released one).
	Version string
	// Revision is the VCS revision the binary was built from, shortened to
	// 12 characters; "-dirty" is appended when the working tree was
	// modified.
	Revision string
	// GoVersion is the toolchain that built the binary.
	GoVersion string
}

var (
	once sync.Once
	info Info
)

// Read returns the process's build metadata (cached after the first call).
func Read() Info {
	once.Do(func() {
		info = Info{Version: "unknown", Revision: "unknown", GoVersion: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		info.GoVersion = bi.GoVersion
		if v := bi.Main.Version; v != "" {
			info.Version = v
		}
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			info.Revision = rev
		}
	})
	return info
}

// String renders the one-line -version output: "name version (revision, go)".
func String(name string) string {
	i := Read()
	return fmt.Sprintf("%s %s (%s, %s)", name, i.Version, i.Revision, i.GoVersion)
}

// WritePrometheus emits the conventional build-info gauge: constant value 1
// with the metadata as labels, so dashboards can join any series against the
// running version.
func WritePrometheus(w io.Writer) {
	i := Read()
	fmt.Fprintf(w, "# HELP distjoin_build_info Build metadata of the running binary (constant 1; version/revision/go in labels).\n")
	fmt.Fprintf(w, "# TYPE distjoin_build_info gauge\n")
	fmt.Fprintf(w, "distjoin_build_info{version=%q,revision=%q,go_version=%q} 1\n",
		escapeLabel(i.Version), escapeLabel(i.Revision), escapeLabel(i.GoVersion))
}

// escapeLabel guards the label values against metadata containing the three
// characters the exposition format escapes. %q handles quotes and
// backslashes; newlines cannot appear in build metadata but are stripped
// defensively.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", " ")
}
