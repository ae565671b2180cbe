// Package slab holds the one helper every layer's in-place init shares: a
// simulator rebuilt on a closed one's storage (core.Simulator.Close) re-fits
// each slice it already owns instead of allocating a new one.
package slab

// Fit sets *s to n zero elements, in its own backing array when that holds
// n, else in a new one.
func Fit[T any](s *[]T, n int) {
	if cap(*s) < n {
		*s = make([]T, n)
		return
	}
	*s = (*s)[:n]
	clear(*s)
}
