package base

import "context"

// WithObserver returns ctx carrying fn, which a Session opened under it
// tells of each step a test orders against the frames its backend saw:
// "decode" when fetched pages go to a decoder, "search" when the query's
// graph starts a search.
func WithObserver(ctx context.Context, fn func(string)) context.Context {
	return context.WithValue(ctx, observeKey{}, fn)
}
