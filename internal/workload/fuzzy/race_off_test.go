//go:build !race

package fuzzy

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
