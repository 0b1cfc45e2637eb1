//go:build !race

// Package racecheck tells tests whether they run under the race detector,
// whose instrumentation allocates: the allocation gates skip themselves
// there.
package racecheck

// Enabled reports that the race detector is compiled in.
const Enabled = false
