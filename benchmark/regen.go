package main

import "mergescale/internal/experiments"

// regen: a fresh `mergescale -quick -workers 2 run all` per op, no cache,
// so every op computes the whole quick registry.

// regenDigest is the SHA-256 of `mergescale -quick run all` stdout (text
// format). The goldens pin these bytes; any change to them is a failure.
const regenDigest = "555b2e4f0039208cd9b8f376e50e01dfff3dd6aa8ef2039fc87e470f78469b5a"

var regenArgs = []string{"-quick", "-workers", "2", "run", "all"}

// regenE2E: set-up is one untimed op. Its output is not checked there:
// a wrong digest fails the timed ops instead of aborting the run.
func regenE2E(e *env) (*outcome, error) {
	return cliE2E(e, &cliWorkload{
		setup: func() error {
			_, _, err := runCLI(e.bin, regenArgs...)
			return err
		},
		args:  regenArgs,
		check: func(out []byte) error { return checkDigest(out, regenDigest) },
		work:  len(experiments.Registry()),
	})
}

func regenTraced(e *env) (*outcome, error) {
	return cliTraced(e, "regen", "", regenDigest)
}
