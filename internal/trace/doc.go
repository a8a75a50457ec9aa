// Package trace provides the phase instrumentation and parameter extraction
// used in Section IV/V-A of the paper: workload runs are split into
// initialization, parallel, reduction (merging) and serial sections, and
// the model parameters f, fcon, fcred and fored are extracted from profiles
// collected at several thread counts.
//
// Profiles carry two measures per section:
//
//   - Work: a deterministic operation count (flops + memory ops) that is
//     immune to GC/scheduler noise — the default basis for parameter
//     extraction (see DESIGN.md on the hardware-validation substitution);
//   - Duration: wall-clock time, used by the native "real hardware"
//     validation experiment (Figure 2(c)).
//
// Work-based profiles are pure functions of their inputs and therefore
// cacheable through the engine (simulated profiles travel as
// workload.SimRun values in the persistent disk cache, native ones as
// Profile values). Duration-based
// profiles are timing-sensitive by construction: anything derived from
// them under -duration is excluded from caching and from determinism
// tests.
package trace
