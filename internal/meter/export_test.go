package meter

import "time"

// SetClock replaces the meter's clock until the returned restore is called,
// so tests outside the package can count and steer its reads.
func SetClock(f func(time.Time) time.Duration) (restore func()) {
	old := since
	since = f
	return func() { since = old }
}
