package distjoin

import (
	"distjoin/internal/distjoin"
	"distjoin/internal/pager"
)

// PageID identifies a page in a PageStore.
type PageID = pager.PageID

// PageStore is the paged-storage interface behind the hybrid queue's disk
// tier (and the R*-tree). Implement it — typically by wrapping an
// existing store — to supply instrumented, throttled or fault-injecting
// storage via Options.QueueStore.
type PageStore = pager.Store

// NewMemPageStore returns an in-memory PageStore with the given page
// size, the usual base for custom store wrappers and deterministic tests.
func NewMemPageStore(pageSize int) (PageStore, error) {
	return pager.NewMemStore(pageSize)
}

// RetryPolicy bounds the retrying of transient storage failures; assign
// it to Options.RetryIO. See the pager package for field semantics.
type RetryPolicy = pager.RetryPolicy

// ErrTransientIO classifies retryable storage failures: a PageStore that
// wants the RetryIO layer to re-attempt an operation must return an error
// wrapping this sentinel.
var ErrTransientIO = pager.ErrTransient

// ErrIteratorClosed is returned by Join.Next after Close.
var ErrIteratorClosed = distjoin.ErrIteratorClosed

// ErrQueueStore wraps every failure of the Options.QueueStore factory, so
// callers can tell a broken storage backend from invalid join options.
var ErrQueueStore = distjoin.ErrQueueStore

// ErrCanceled is the sticky terminal error of a run whose Options.Context
// was canceled or reached its deadline: the pairs delivered before the
// cancellation are a correct ordered prefix of the result, and every
// later Next returns an error wrapping this sentinel (and the context's
// cause, so errors.Is also matches context.Canceled and
// context.DeadlineExceeded).
var ErrCanceled = distjoin.ErrCanceled

// ErrRetryInterrupted wraps the last transient storage error when a
// canceled context cut a RetryIO backoff ladder short. Errors surfaced by
// the iterator fold it under ErrCanceled; the bare sentinel is visible to
// RetryPolicy.OnFault observers.
var ErrRetryInterrupted = pager.ErrRetryInterrupted
