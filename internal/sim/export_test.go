package sim

// RandomProgram exposes randomProgram to the external sim_test package,
// whose tests also build workload programs (which import sim).
var RandomProgram = randomProgram
