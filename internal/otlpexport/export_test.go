package otlpexport

import (
	"time"

	"distjoin/internal/pager"
)

// The in-package helpers the exporter's external tests use: they import
// internal/otlptest, which imports this package.
var (
	NewWithRetry = newExporter
	TracedQuery  = tracedQuery
)

// FastRetry is an aggressive policy that never sleeps, for tests.
func FastRetry(attempts int) pager.RetryPolicy {
	return pager.RetryPolicy{MaxAttempts: attempts, Backoff: time.Nanosecond, Sleep: func(time.Duration) {}}
}
