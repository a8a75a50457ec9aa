//go:build !race

package experiments

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
