package main

import "testing"

func TestRunValidation(t *testing.T) {
	if err := run("bogus-scale", "table1", 0, false, ""); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// Use the small scale but a non-matching experiment id: the harness
	// must fail fast without executing anything heavy.
	if err := run("small", "nonexistent", 0, false, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}
