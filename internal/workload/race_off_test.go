//go:build !race

package workload_test

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
