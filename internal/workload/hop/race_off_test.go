//go:build !race

package hop

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
