package main

import (
	"fmt"
	"path/filepath"
	"strconv"

	"mergescale/internal/experiments"
)

// replay: a fresh `mergescale -quick -workers 2 -cachedir DIR run all` per
// op over a disk cache that set-up filled with the same command, so every
// document is read back through the breaker and the disk cache and
// gob-decoded, then rendered; nothing is computed or written. Its stdout
// is regen's, byte for byte.
//
// It replays documents rather than sweep points because set-up has to
// write the cache, and creating a file on this benchmark's ext4 disk
// swung between about 50 and 500 µs within twenty minutes: filling a
// 1024-point sweep cache took 0.13 s in one run and 0.55 s a few runs
// later. The quick registry writes about a hundred files next to 190 ms of
// compute, which such a swing barely moves.

func replayArgs(cachedir string) []string {
	return []string{"-quick", "-workers", "2", "-cachedir", cachedir, "run", "all"}
}

// replayE2E: each set-up fills a fresh cache directory with one op and
// reads it back once. As in regen, outputs are checked on the timed ops.
func replayE2E(e *env) (*outcome, error) {
	w := cliWorkload{
		check: func(out []byte) error { return checkDigest(out, regenDigest) },
		work:  len(experiments.Registry()),
	}
	reps := 0
	w.setup = func() error {
		reps++
		w.args = replayArgs(filepath.Join(e.work, "cache-"+strconv.Itoa(reps)))
		for range 2 {
			if _, _, err := runCLI(e.bin, w.args...); err != nil {
				return err
			}
		}
		return nil
	}
	return cliE2E(e, &w)
}

// replayTraced fills the cache with the CLI, then runs the op in-process.
func replayTraced(e *env) (*outcome, error) {
	cachedir := filepath.Join(e.work, "cache")
	if _, _, err := runCLI(e.bin, replayArgs(cachedir)...); err != nil {
		return nil, fmt.Errorf("filling the cache: %w", err)
	}
	return cliTraced(e, "replay", cachedir, regenDigest)
}
