//go:build race

package racecheck

// Enabled reports that the race detector is compiled in.
const Enabled = true
