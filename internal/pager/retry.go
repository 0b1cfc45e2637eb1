package pager

import (
	"errors"
	"fmt"
	"time"
)

// ErrTransient classifies I/O failures that have a reasonable chance of
// succeeding when retried (interrupted syscalls, throttled devices, flaky
// network storage). Stores signal it by wrapping it into returned errors;
// RetryStore retries exactly the errors for which IsTransient reports true.
var ErrTransient = errors.New("pager: transient I/O error")

// IsTransient reports whether err is a retryable storage failure.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient)
}

// ErrRetryInterrupted wraps the last transient error when a RetryStore
// gives up retrying because its policy's Done channel closed (typically a
// canceled query context): the backoff sleep is cut short and the
// operation fails immediately instead of burning the remaining attempts.
var ErrRetryInterrupted = errors.New("pager: retry interrupted")

// RetryPolicy bounds how RetryStore re-attempts transient failures.
// The zero value disables retrying (a single attempt per operation).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, including
	// the first. Values below 2 disable retrying.
	MaxAttempts int
	// Backoff is the delay before the first retry. Zero retries
	// immediately.
	Backoff time.Duration
	// Multiplier grows the delay after every retry. Values below 1 are
	// treated as 2 (plain exponential backoff).
	Multiplier float64
	// MaxBackoff caps the grown delay. Zero means uncapped.
	MaxBackoff time.Duration
	// Sleep replaces time.Sleep, letting tests retry without waiting.
	Sleep func(time.Duration)
	// Done, when non-nil, makes retrying interruptible: once the channel
	// is closed, backoff sleeps end immediately and no further attempts
	// are made — the operation fails with an ErrRetryInterrupted-wrapped
	// error. The join engine wires its query context's Done channel here
	// so a canceled query never sleeps through a retry ladder. (A channel
	// rather than a context keeps this package dependency-free and the
	// check allocation-free.)
	Done <-chan struct{}
	// OnFault is called for every failed attempt, including permanent
	// errors and the final exhausted attempt, before OnRetry.
	OnFault func(op string, err error)
	// OnRetry is called just before each re-attempt with the 1-based
	// number of the attempt that failed.
	OnRetry func(op string, attempt int, err error)
}

// Enabled reports whether the policy actually retries anything.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Do runs f under the policy: failures that IsTransient classifies as
// retryable are re-attempted with exponential backoff until the attempt
// budget is exhausted or Done closes, exactly as RetryStore does for
// storage operations. op names the operation for the OnFault/OnRetry
// observers.
func (p RetryPolicy) Do(op string, f func() error) error {
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	delay := p.Backoff
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil {
			return nil
		}
		if p.OnFault != nil {
			p.OnFault(op, err)
		}
		if !IsTransient(err) || attempt >= p.MaxAttempts {
			return err
		}
		// Interruption check before committing to a retry: a closed Done
		// abandons the ladder without invoking OnRetry (no re-attempt is
		// made) even when the backoff delay is zero.
		select {
		case <-p.Done:
			return fmt.Errorf("%w: %w", ErrRetryInterrupted, err)
		default:
		}
		if p.OnRetry != nil {
			p.OnRetry(op, attempt, err)
		}
		if delay > 0 {
			if !p.pause(delay) {
				return fmt.Errorf("%w: %w", ErrRetryInterrupted, err)
			}
			delay = time.Duration(float64(delay) * p.Multiplier)
			if p.MaxBackoff > 0 && delay > p.MaxBackoff {
				delay = p.MaxBackoff
			}
		}
	}
}

// RetryStore wraps a Store and re-attempts operations that fail with a
// transient error (per IsTransient), sleeping an exponentially growing
// backoff between attempts. Permanent errors pass through untouched on
// the first attempt. It adds no locking of its own: it is exactly as
// concurrency-safe as the wrapped store.
type RetryStore struct {
	inner  Store
	policy RetryPolicy
}

// NewRetryStore wraps inner with the given policy.
func NewRetryStore(inner Store, policy RetryPolicy) *RetryStore {
	if policy.Multiplier < 1 {
		policy.Multiplier = 2
	}
	return &RetryStore{inner: inner, policy: policy}
}

func (s *RetryStore) do(op string, f func() error) error {
	return s.policy.Do(op, f)
}

// pause waits out one backoff delay, reporting false when Done closed
// before (or while) waiting. A custom Sleep hook is honoured as-is — tests
// substitute a no-op — with a non-blocking Done check after it returns;
// the real sleep selects between a timer and Done so cancellation cuts it
// short immediately.
func (p *RetryPolicy) pause(d time.Duration) bool {
	if p.Sleep != nil {
		p.Sleep(d)
		select {
		case <-p.Done:
			return false
		default:
		}
		return true
	}
	if p.Done == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.Done:
		return false
	}
}

func (s *RetryStore) PageSize() int { return s.inner.PageSize() }

func (s *RetryStore) Allocate() (PageID, error) {
	var id PageID
	err := s.do("allocate", func() error {
		var err error
		id, err = s.inner.Allocate()
		return err
	})
	return id, err
}

func (s *RetryStore) Free(id PageID) error {
	return s.do("free", func() error { return s.inner.Free(id) })
}

func (s *RetryStore) ReadPage(id PageID, buf []byte) error {
	return s.do("read", func() error { return s.inner.ReadPage(id, buf) })
}

func (s *RetryStore) WritePage(id PageID, data []byte) error {
	return s.do("write", func() error { return s.inner.WritePage(id, data) })
}

func (s *RetryStore) NumAllocated() int { return s.inner.NumAllocated() }

func (s *RetryStore) Close() error { return s.inner.Close() }
