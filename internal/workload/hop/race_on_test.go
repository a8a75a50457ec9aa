//go:build race

package hop

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates: allocation-budget assertions only arm
// without it.
const raceEnabled = true
