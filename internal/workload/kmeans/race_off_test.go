//go:build !race

package kmeans

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
