//go:build race

package host

// raceEnabled reports whether the race detector is active; it changes
// allocation counts, so the allocation pins skip under -race.
const raceEnabled = true
