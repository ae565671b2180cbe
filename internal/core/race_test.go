//go:build race

package core

// raceEnabled is set under the race detector, whose sync.Pool drops a
// quarter of its Puts at random: a recycled build may then allocate afresh.
const raceEnabled = true
