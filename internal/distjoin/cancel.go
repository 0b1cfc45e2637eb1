package distjoin

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled is the terminal error of a run whose Options.Context was
// canceled or reached its deadline. It is the system-level dual of the
// paper's stop-anytime property: the pairs delivered before cancellation
// are a correct ordered prefix of the full result, the iterator latches
// ErrCanceled as its sticky terminal error, and every engine resource
// (priority queues, scratch files, pager frames) is
// released as if the run had completed.
//
// The surfaced error wraps both ErrCanceled and the context's cause, so
// errors.Is works against ErrCanceled, context.Canceled and
// context.DeadlineExceeded alike.
var ErrCanceled = errors.New("distjoin: query canceled")

// cancelCheckEvery bounds the cancel latency within one Next call: the
// engine loop re-checks the context after this many queue pops, so a Next
// that filters through a long run of pruned pairs still observes
// cancellation within a bounded amount of work. Between Next calls the
// check at the top of step applies, so cancel-then-Next is deterministic.
const cancelCheckEvery = 64

// canceledErr builds the sticky terminal error for a canceled context,
// preserving the cancellation cause.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// wrapCanceled annotates an error that surfaced while the context was
// already canceled: storage errors provoked by the cancellation (e.g. an
// interrupted retry backoff) are reported as cancellations, keeping the
// error taxonomy sharp — ErrCanceled means "you asked to stop",
// ErrQueueStore means "the storage backend is broken".
func wrapCanceled(ctx context.Context, err error) error {
	if err == nil || ctx == nil || ctx.Err() == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}
