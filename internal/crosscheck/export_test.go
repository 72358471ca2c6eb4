package crosscheck

import (
	"context"

	"herdcats/internal/litmus"
)

// ErrComparisonOver is every decider's answer on the context of a
// finished comparison.
var ErrComparisonOver = errComparisonOver

// WithScope returns a context carrying a comparison's scope for test, as
// ComparePairs attaches, and its release.
func WithScope(ctx context.Context, test *litmus.Test) (context.Context, func()) {
	return withScope(ctx, test)
}

// OnScopeRelease has f told of each step of every scope release:
// "instance", "program" and "end", and whether a comparison attached the
// scope. It returns the function that stops telling.
func OnScopeRelease(f func(comparison bool, step string)) (restore func()) {
	scopeReleased = f
	return func() { scopeReleased = nil }
}
