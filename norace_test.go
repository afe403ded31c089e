//go:build !race

package ghsom

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts, so allocation counts over pools are not exact.
const raceEnabled = false
