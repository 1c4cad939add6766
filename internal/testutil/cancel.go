package testutil

import "context"

// cancelAfter is a context whose Err reports nil for its first n calls and
// context.Canceled from then on, so a test can cancel a loop that only
// polls Err at a chosen iteration.
type cancelAfter struct {
	context.Context
	n int
}

// CancelAfter returns a context that turns canceled on its (n+1)-th Err
// call. It is not safe for concurrent use.
func CancelAfter(n int) context.Context {
	return &cancelAfter{Context: context.Background(), n: n}
}

// Err counts the call down and reports context.Canceled once the count is
// spent.
func (c *cancelAfter) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}
