// Package envstamp stamps benchmark artifacts with the environment they were
// produced in, so two JSON reports (BENCH_PR1.json .. BENCH_PR10.json) are
// only compared when they come from comparable runs. rankload embeds one
// Stamp at the top of its report.
package envstamp

import (
	"runtime"
	"runtime/debug"
)

// Stamp is the environment header shared by all benchmark artifacts. The
// JSON keys match the checked-in BENCH_PR*.json artifacts, so they stay
// directly comparable.
type Stamp struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the worker parallelism the run had available.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Commit is the vcs revision baked in by the Go linker ("+dirty"
	// appended when the worktree had uncommitted changes), empty when the
	// binary was built outside a checkout.
	Commit string `json:"commit,omitempty"`
}

// New captures the current process's environment stamp.
func New() Stamp {
	return Stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     vcsRevision(),
	}
}

// vcsRevision reads the commit hash the binary was built from out of the
// build info, if the toolchain recorded one.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}
