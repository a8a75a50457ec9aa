// Package experiments contains one regenerator per table and figure of the
// paper (plus ablation studies beyond it). Each experiment builds and
// returns a plain report.Document with the same rows/series the paper
// reports, alongside
// the paper's published values where the text states them, so
// EXPERIMENTS.md can record paper-vs-measured for every artifact.
//
// Experiments always run through an engine: StreamElements (and its
// buffered reference, RunAll) submits one job per artifact, and
// experiments shard their expensive internal work — per-core-count
// simulator runs and per-thread-count native runs (internal/workload) —
// into sub-jobs on the same engine via Options.Engine, which is required.
// Closed-form model sweeps (internal/core) are plain calls inside the
// experiment's job: microseconds of arithmetic that no cache lookup
// could beat. The engine executes sub-jobs inline
// when its pool is saturated, so nested submission never deadlocks, and
// engine.Config{Workers: 1, DisableCache: true} is the serial, uncached
// reference.
//
// StreamElements is the one run path registry consumers build on (the
// CLI's run, and one stream per GET /run client in internal/serve): each
// experiment's whole document is released to emit, as its element
// stream, in target order as soon as it and every earlier target have
// resolved, and the first error cancels the run's derived context so
// outstanding jobs stop computing for a consumer that is gone.
// SweepPlan.Run (POST /sweep and the CLI's sweep) is the one row-granular
// producer: it builds no document and emits each grid point's row as the
// point is evaluated.
//
// Caching rules. Every experiment job is keyed by cacheKey: the artifact
// id plus each Options field that changes output. Options.Engine is
// deliberately excluded — it affects scheduling, never results. Experiments
// marked Timing produce wall-clock-dependent output under
// Options.UseDuration and get an empty key in that mode, so -duration
// results are never cached, in memory or on disk. Each Run constructs all
// of its own state per invocation (data sets, workloads, simulator
// machines — sim.Machine is single-use), which is what makes its result a
// pure function of the cache key.
package experiments
