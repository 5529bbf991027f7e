//go:build !race

package batch

// raceEnabled reports a -race build, under which sync.Pool drops a
// share of what it is given on purpose.
const raceEnabled = false
